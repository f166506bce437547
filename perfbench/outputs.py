"""Correctness checks, fingerprints and accuracy of one pipeline run's outputs.

Everything here reads the files a run left in its output directory and
the generator's exact ground truth beside the rendered inputs.
"""

import hashlib
import math
import statistics
from pathlib import Path

import numpy as np

from roadalign.errors import RoadAlignError
from roadalign.pipeline import SYNC_HEADER, list_masks, run_eval


class CheckFailed(Exception):
    """A run's outputs broke one of the benchmark's correctness checks."""


def _read_sync(path, expected_rows):
    lines = path.read_text().splitlines()
    if not lines or lines[0] != SYNC_HEADER:
        raise CheckFailed("sync.csv header is missing or wrong")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(SYNC_HEADER.split(",")):
            raise CheckFailed(f"sync.csv line {number}: wrong field count")
        try:
            rows.append((int(cells[0]), int(cells[1]),
                         *(float(c) for c in cells[2:])))
        except ValueError:
            raise CheckFailed(f"sync.csv line {number}: not a number") from None
    if len(rows) != expected_rows:
        raise CheckFailed(f"sync.csv has {len(rows)} rows, want {expected_rows}")
    return rows


def fingerprint(out_dir):
    """sha256 of sync.csv and of the mask set (names and bytes, in order)."""
    out = Path(out_dir)
    masks = hashlib.sha256()
    for path in sorted(out.glob("mask_*.pgm")):
        masks.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"sync_csv_sha256": hashlib.sha256(
                (out / "sync.csv").read_bytes()).hexdigest(),
            "masks_sha256": masks.hexdigest()}


def check_run(out_dir, data_dir, expected_masks):
    """Check one run's outputs; return its fingerprint and accuracy.

    Raises CheckFailed when the mask count is not `expected_masks`, when
    sync.csv does not parse or disagrees with the masks, when emitted
    labels decrease, or when the masks cannot be scored against the
    truth masks.
    """
    out, data = Path(out_dir), Path(data_dir)
    masks = list(out.glob("mask_*.pgm"))
    if len(masks) != expected_masks:
        raise CheckFailed(f"{len(masks)} masks written, want {expected_masks}")
    if not (out / "sync.csv").is_file():
        raise CheckFailed("no sync.csv written")
    rows = _read_sync(out / "sync.csv", expected_masks)
    observed = [r[0] for r in rows]
    labels = [r[1] for r in rows]
    if observed != sorted(set(observed)):
        raise CheckFailed("sync.csv observed indices do not increase")
    if [i for i, _ in list_masks(out)] != observed:
        raise CheckFailed("sync.csv rows and mask files name different frames")
    if any(b < a for a, b in zip(labels, labels[1:])):
        raise CheckFailed("emitted labels decrease")
    try:
        _, agg = run_eval(out, data / "obs")
    except (RoadAlignError, OSError, ValueError) as exc:
        raise CheckFailed(f"run_eval failed: {exc}") from exc

    truth_ref = np.loadtxt(data / "truth_correspondence.csv", delimiter=",",
                           skiprows=1, dtype=np.int64, ndmin=2)[:, 1]
    truth_omega = np.loadtxt(data / "truth_omega.csv", delimiter=",",
                             skiprows=1, ndmin=2)[:, 1:]
    sync_err = [abs(label - 1 - truth_ref[t]) for t, label in zip(observed, labels)]
    rot_err = [1e3 * float(np.linalg.norm(np.array(r[3:6]) - truth_omega[r[0]]))
               for r in rows]
    registered = sum(1 for r in rows if math.isfinite(r[6]))
    accuracy = {
        "quality_mean": agg["quality"][0],
        "sync_mae_frames": statistics.fmean(sync_err),
        "rot_err_mrad": statistics.median(rot_err),
        "success_frac": registered / expected_masks,
    }
    return fingerprint(out), accuracy
