"""Ride-level orchestration: synchronize, register, transfer, evaluate.

Frame directories hold frame_%06d.ppm images and, for the reference
ride, mask_%06d.pgm road annotations. Labels are 1-based; reference
label x names the x-th reference frame in on-disk order, whatever its
frame number.
"""

import logging
import math
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .descriptor import DescriptorBank, compute_descriptor
from .errors import AlignmentError, DataError, SyncLossError
from .evaluate import (MEASURES, aggregate, contingency, format_mean_std,
                       metrics)
from .imagecore import (load_image, load_mask, read_image_shape, rgb_to_gray,
                        save_mask)
from .invariant import InvariantDirection, rgb_to_invariant
from .spatial import RotationParams, lk_align, warp_mask
from .temporal import SyncConfig, build_likelihood_table, map_sequence
from .temporal import OnlineSynchronizer
from .transfer import transfer_and_refine

logger = logging.getLogger(__name__)

SYNC_HEADER = "observed_index,reference_label,score,omega_x,omega_y,omega_z,residual"

_FRAME_RE = re.compile(r"frame_(\d+)\.ppm$")
_MASK_RE = re.compile(r"mask_(\d+)\.pgm$")


def list_frames(directory):
    """Sorted (index, path) pairs of frame files; empty dir is a DataError."""
    return _list_indexed(directory, _FRAME_RE, "frame")


def list_masks(directory):
    return _list_indexed(directory, _MASK_RE, "mask")


def _list_indexed(directory, pattern, kind):
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"not a directory: {directory}")
    found = []
    for path in directory.iterdir():
        m = pattern.search(path.name)
        if m:
            found.append((int(m.group(1)), path))
    if not found:
        raise DataError(f"no {kind} files in {directory}")
    found.sort()
    return found


def convert_frame(img, space, direction):
    """Project a loaded frame into the requested working space."""
    if space == "invariant":
        if img.ndim != 3:
            raise DataError("invariant space requires color frames")
        return rgb_to_invariant(img, direction)
    return rgb_to_gray(img) if img.ndim == 3 else img


def _check_frame(path, frame_shape, shape, cfg):
    """DataError unless a frame of `frame_shape`, as loaded, suits the run.

    Its (rows, columns) must equal `shape` when one is given, and it
    must be a color frame when either working space is invariant.
    """
    if shape is not None and frame_shape[:2] != shape:
        raise DataError(f"{path}: frame is {frame_shape[1]}x{frame_shape[0]}, "
                        f"reference frames are {shape[1]}x{shape[0]}")
    if len(frame_shape) != 3 and "invariant" in (cfg.feature_space,
                                                  cfg.diff_space):
        raise DataError(f"{path}: invariant space requires color frames")


def _load_frame(path, cfg, direction, shape=None):
    """Load one frame as its (feature, diff) image pair.

    The diff image is the feature image itself when both spaces agree.
    A frame that fails `_check_frame` is a DataError.
    """
    img = load_image(path)
    _check_frame(path, img.shape, shape, cfg)
    feat = convert_frame(img, cfg.feature_space, direction)
    if cfg.diff_space == cfg.feature_space:
        return feat, feat
    return feat, convert_frame(img, cfg.diff_space, direction)


@dataclass
class ReferenceRide:
    feature: list   # per-frame image in the sync/registration space
    diff: list      # per-frame image in the background-subtraction space
    masks: list
    bank: DescriptorBank


def load_reference(ref_dir, cfg):
    """Load reference frames + masks and precompute their descriptors."""
    direction = InvariantDirection(cfg.theta)
    params = cfg.descriptor_params()
    feature, diff, masks = [], [], []
    for index, path in list_frames(ref_dir):
        shape = feature[0].shape if feature else None
        feat, diff_img = _load_frame(path, cfg, direction, shape)
        feature.append(feat)
        diff.append(diff_img)
        mask_path = path.with_name(f"mask_{index:06d}.pgm")
        if not mask_path.exists():
            raise DataError(f"missing reference mask: {mask_path}")
        mask = load_mask(mask_path)
        if mask.shape != feat.shape:
            raise DataError(f"mask/frame shape mismatch at index {index}")
        masks.append(mask)
    bank = DescriptorBank([compute_descriptor(f, params) for f in feature])
    return ReferenceRide(feature, diff, masks, bank)


@dataclass(frozen=True)
class AlignRow:
    observed_index: int
    label: int
    score: float
    omega: RotationParams
    residual: float

    def csv_line(self):
        return (f"{self.observed_index},{self.label},{self.score:.9g},"
                f"{self.omega.omega_x:.9g},{self.omega.omega_y:.9g},"
                f"{self.omega.omega_z:.9g},{self.residual:.9g}")


def _register_and_transfer(ref, obs_feat, obs_diff, label, cfg, intrinsics,
                           refine):
    """LK-align one matched pair and carry the road mask across."""
    ref_feat = ref.feature[label - 1]
    try:
        omega, residual = lk_align(ref_feat, obs_feat, intrinsics,
                                   cfg.lk_settings())
    except AlignmentError as exc:
        logger.warning("registration failed (%s); falling back to identity",
                       exc)
        omega, residual = RotationParams(), math.nan
    if refine:
        mask = transfer_and_refine(ref.masks[label - 1], ref.diff[label - 1],
                                   obs_diff, omega, intrinsics,
                                   cfg.refine_settings())
    else:
        mask = warp_mask(ref.masks[label - 1], omega, intrinsics)
    return omega, residual, mask


def _write_sync_csv(out_dir, rows):
    lines = [SYNC_HEADER] + [r.csv_line() for r in rows]
    (Path(out_dir) / "sync.csv").write_text("\n".join(lines) + "\n")


def run_align(ref_dir, obs_dir, out_dir, cfg, refine=True, on_emit=None):
    """On-line mode: stream observed frames with a fixed lag.

    The mask for observed frame t is produced while frame t + lag is
    being processed and lands in out_dir/mask_%06d.pgm under t's on-disk
    index, which also names t in sync.csv; frame numbers may start above
    0 and have gaps. The trailing lag frames get no mask. Sync losses
    and registration failures skip the frame and the stream continues.
    Every observed frame's header is checked (size against the reference,
    color when a space is invariant) before the first one is pushed, so
    a frame that fails writes no output.
    `on_emit(index, emission)` runs as each label is emitted, with the
    on-disk index of the frame just pushed; `emission.observed_index`
    counts pushed frames from 0.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ref = load_reference(ref_dir, cfg)
    direction = InvariantDirection(cfg.theta)
    params = cfg.descriptor_params()
    shape = ref.feature[0].shape
    intrinsics = cfg.intrinsics(shape[1], shape[0])
    sync = OnlineSynchronizer(ref.bank, cfg.sync_config(), params)
    indexed = list_frames(obs_dir)
    for _, path in indexed:
        _check_frame(path, read_image_shape(path), shape, cfg)

    rows = []
    # (on-disk index, feature, diff image) of the last lag + 1 pushes; an
    # emission names the oldest
    pending = deque(maxlen=cfg.lag + 1)
    losses = 0
    for t, path in indexed:
        feat, obs_diff = _load_frame(path, cfg, direction, shape)
        pending.append((t, feat, obs_diff))
        try:
            emission = sync.push(compute_descriptor(feat, params))
        except SyncLossError as exc:
            losses += 1
            logger.warning("sync lost at frame %d (%s); frame skipped", t, exc)
            emission = None
        if emission is not None:
            if on_emit is not None:
                on_emit(t, emission)
            index, obs_feat, diff_img = pending[0]
            omega, residual, mask = _register_and_transfer(
                ref, obs_feat, diff_img, emission.label, cfg, intrinsics,
                refine)
            save_mask(mask, out / f"mask_{index:06d}.pgm")
            rows.append(AlignRow(index, emission.label, emission.score, omega,
                                 residual))
    _write_sync_csv(out, rows)
    if losses:
        logger.warning("%d frame(s) skipped due to sync loss", losses)
    return rows


def run_groundtruth(ref_dir, obs_dir, out_dir, cfg, refine=True):
    """Off-line mode: decode the whole sequence jointly, mask every frame.

    The label window spans the full observed ride, so there is no lag
    and no candidate band; `cfg.band` applies to `run_align` only.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ref = load_reference(ref_dir, cfg)
    direction = InvariantDirection(cfg.theta)
    params = cfg.descriptor_params()
    shape = ref.feature[0].shape
    intrinsics = cfg.intrinsics(shape[1], shape[0])

    indexed = list_frames(obs_dir)
    # every frame is loaded before any is described or registered
    feats, diffs = zip(*(_load_frame(path, cfg, direction, shape)
                         for _, path in indexed))

    full_cfg = SyncConfig(lag_l=0, window_L=max(len(feats) - 1, 0),
                          beta=cfg.beta, candidate_band=None)
    descs = [compute_descriptor(f, params) for f in feats]
    table = build_likelihood_table(descs, ref.bank, full_cfg, params)
    labels = map_sequence(table, full_cfg)

    rows = []
    for (t, _), feat, diff_img, label in zip(indexed, feats, diffs, labels):
        label = int(label)
        omega, residual, mask = _register_and_transfer(
            ref, feat, diff_img, label, cfg, intrinsics, refine)
        save_mask(mask, out / f"mask_{t:06d}.pgm")
        rows.append(AlignRow(t, label, float(table[len(rows), label - 1]),
                             omega, residual))
    _write_sync_csv(out, rows)
    return rows


def run_eval(result_dir, truth_dir, out_dir=None):
    """Score result masks against truth masks sharing their frame index.

    Every result mask must have a matching truth mask; missing truths
    are a DataError listing the offending frames. Returns (per-frame
    MetricSet list, aggregate dict). Writes metrics.csv when out_dir is
    given.
    """
    results = list_masks(result_dir)
    truth_paths = dict(list_masks(truth_dir))
    missing = [str(i) for i, _ in results if i not in truth_paths]
    if missing:
        raise DataError("no truth mask for frame(s): " + ", ".join(missing))

    per_frame = []
    lines = ["frame," + ",".join(MEASURES)]
    for i, path in results:
        result = load_mask(path)
        truth = load_mask(truth_paths[i])
        if result.shape != truth.shape:
            raise DataError(f"mask shape mismatch at frame {i}")
        m = metrics(contingency(result, truth))
        per_frame.append(m)
        cells = ["" if getattr(m, name) is None else f"{getattr(m, name):.6f}"
                 for name in MEASURES]
        lines.append(f"{i}," + ",".join(cells))
    agg = aggregate(per_frame)
    lines.append("summary," + ",".join(
        format_mean_std(*agg[name]) for name in MEASURES))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    return per_frame, agg
