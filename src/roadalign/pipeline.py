"""Ride-level orchestration: synchronize, register, transfer, evaluate.

Frame directories hold frame_<n>.ppm images and, for the reference
ride, mask_<n>.pgm road annotations of the same frame number n, padded
or not. Labels are 1-based; reference label x names the x-th reference
frame in on-disk order, whatever its frame number.
"""

import logging
import math
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .descriptor import DescriptorBank, compute_descriptor
from .errors import AlignmentError, DataError
from .evaluate import (MEASURES, aggregate, contingency, format_mean_std,
                       metrics)
from .imagecore import (load_image, load_mask, pyramid_depth,
                        read_image_shape, rgb_to_gray, save_mask)
from .invariant import InvariantDirection, rgb_to_invariant
from .spatial import CameraIntrinsics, RotationParams, lk_align, warp_mask
from .temporal import OnlineSynchronizer, build_likelihood_table, map_sequence
from .transfer import transfer_and_refine

logger = logging.getLogger(__name__)

SYNC_HEADER = "observed_index,reference_label,score,omega_x,omega_y,omega_z,residual"

_FRAME_RE = re.compile(r"frame_(\d+)\.ppm")
_MASK_RE = re.compile(r"mask_(\d+)\.pgm")


def list_frames(directory):
    """Sorted (index, path) pairs of the files named frame_<index>.ppm.

    An empty directory, or two files with one frame number, is a DataError.
    """
    return _list_indexed(directory, _FRAME_RE, "frame")


def list_masks(directory):
    return _list_indexed(directory, _MASK_RE, "mask")


def _list_indexed(directory, pattern, kind, required=True):
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"not a directory: {directory}")
    found = []
    for path in directory.iterdir():
        m = pattern.fullmatch(path.name)
        if m:
            found.append((int(m.group(1)), path))
    if required and not found:
        raise DataError(f"no {kind} files in {directory}")
    found.sort()
    for (i, a), (j, b) in zip(found, found[1:]):
        if i == j:
            raise DataError(f"{kind} number {i} is repeated: {a} and {b}")
    return found


def convert_frame(img, space, direction):
    """Project a loaded frame into the requested working space.

    The invariant space needs a color frame; `_check_frame` rejects a
    gray one before any frame of a run is converted.
    """
    if space == "invariant":
        return rgb_to_invariant(img, direction)
    return rgb_to_gray(img) if img.ndim == 3 else img


def _check_frame(path, frame_shape, shape, cfg):
    """DataError unless a frame of `frame_shape`, as loaded, suits the run.

    Its (rows, columns) must equal `shape` when one is given; without
    one (the first reference frame), they must give a descriptor grid
    of at least 2x2 cells. It must be a color frame when the working
    space is invariant.
    """
    h, w = frame_shape[:2]
    if shape is None:
        factor = cfg.downsample_factor
        if math.ceil(h / factor) < 2 or math.ceil(w / factor) < 2:
            raise DataError(f"{path}: frame is {w}x{h}, under 2x2 descriptor "
                            f"cells at downsample_factor={factor}")
    elif (h, w) != shape:
        raise DataError(f"{path}: frame is {w}x{h}, "
                        f"reference frames are {shape[1]}x{shape[0]}")
    if len(frame_shape) != 3 and cfg.feature_space == "invariant":
        raise DataError(f"{path}: invariant space requires color frames")


def _load_frame(path, cfg, direction, shape=None):
    """Load one frame into the working space.

    A frame that fails `_check_frame` is a DataError.
    """
    img = load_image(path)
    _check_frame(path, img.shape, shape, cfg)
    return convert_frame(img, cfg.feature_space, direction)


@dataclass
class ReferenceRide:
    """The reference frames, their road masks and their descriptors.

    A frame is stored as float32 in the working space and its mask
    packed one bit per pixel (`np.packbits`): 4 h w + ceil(h w / 8)
    bytes a frame. `frame(label)` and `mask(label)` give them back.
    """

    feature: list   # float32 frame per label, in the working space
    masks: list     # packed mask per label
    bank: DescriptorBank
    shape: tuple    # (rows, columns) of every frame

    @property
    def diff(self):
        # read by the benchmark's tracer; refinement uses the feature images
        return self.feature

    def frame(self, label):
        """Reference frame `label` (1-based), float32 and read-only."""
        return self.feature[label - 1]

    def mask(self, label):
        """Road mask of reference frame `label` (1-based), a bool array."""
        h, w = self.shape
        bits = np.unpackbits(self.masks[label - 1], count=h * w)
        return bits.view(bool).reshape(h, w)


def load_reference(ref_dir, cfg):
    """Load reference frames + masks and precompute their descriptors.

    Each frame's mask is the mask file of its frame number. A frame is
    described from its float64 working image, which is then stored as
    float32 and let go.
    """
    direction = InvariantDirection(cfg.theta)
    mask_paths = dict(_list_indexed(ref_dir, _MASK_RE, "mask", required=False))
    feature, masks, descs = [], [], []
    shape = None
    for index, path in list_frames(ref_dir):
        image = _load_frame(path, cfg, direction, shape)
        shape = image.shape
        if index not in mask_paths:
            raise DataError(f"missing reference mask for {path}")
        mask = load_mask(mask_paths[index])
        if mask.shape != shape:
            raise DataError(f"{mask_paths[index]}: mask is {mask.shape[1]}x"
                            f"{mask.shape[0]}, its frame {path} is "
                            f"{shape[1]}x{shape[0]}")
        descs.append(compute_descriptor(image, cfg.smooth_sigma,
                                        cfg.downsample_factor))
        frame = image.astype(np.float32)
        frame.setflags(write=False)
        feature.append(frame)
        masks.append(np.packbits(mask))
    return ReferenceRide(feature, masks, DescriptorBank(descs), shape)


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


@dataclass(frozen=True)
class _Run:
    """What every frame of one run shares, worked out once at its start."""

    ref: ReferenceRide
    out: Path
    direction: InvariantDirection
    shape: tuple  # (rows, columns) of every frame
    intrinsics: CameraIntrinsics
    levels: int  # pyramid levels lk_align may build, at most
    refine: bool  # False: the mask is warped, not refined


def _open_run(ref_dir, obs_dir, out_dir, cfg, refine):
    """The observed frames and the run's shared settings.

    The observed frames are listed first, then the reference is loaded,
    then every observed frame's header is checked (size against the
    reference, color when the space is invariant). The output directory
    is made only when all of that passed. Frames of the reference's
    size may allow fewer pyramid levels than configured; `build_pyramid`
    then builds only those, and the run warns once here.
    """
    indexed = list_frames(obs_dir)
    ref = load_reference(ref_dir, cfg)
    shape = ref.shape
    for _, path in indexed:
        _check_frame(path, read_image_shape(path), shape, cfg)
    levels = pyramid_depth(shape, cfg.pyramid_levels)
    if levels < cfg.pyramid_levels:
        logger.warning("pyramid clamped to %d of %d levels for %dx%d frames",
                       levels, cfg.pyramid_levels, shape[1], shape[0])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return indexed, _Run(ref, out, InvariantDirection(cfg.theta), shape,
                         cfg.intrinsics(shape[1], shape[0]),
                         cfg.pyramid_levels, refine)


def _register_and_transfer(run, image, label):
    """LK-align one matched pair and carry the road mask across.

    The refinement reuses LK's final warp of the reference frame; after
    an identity fallback it warps the stored float32 frame itself.
    """
    ref_image, ref_mask = run.ref.frame(label), run.ref.mask(label)
    try:
        omega, residual, warp = lk_align(ref_image, image, run.intrinsics,
                                         run.levels)
    except AlignmentError as exc:
        logger.warning("registration failed (%s); falling back to identity",
                       exc)
        omega, residual, warp = RotationParams(), math.nan, None
    if run.refine:
        mask = transfer_and_refine(ref_mask, ref_image, image, omega,
                                   run.intrinsics, warp)
    else:
        mask = warp_mask(ref_mask, omega, run.intrinsics)
    return omega, residual, mask


def _emit(run, index, image, label, score):
    """Register observed frame `index` to reference `label`, write its
    mask and return its sync.csv row."""
    omega, residual, mask = _register_and_transfer(run, image, label)
    save_mask(mask, run.out / f"mask_{index:06d}.pgm")
    return AlignRow(index, label, score, omega, residual)


def _write_sync_csv(out_dir, rows):
    lines = [SYNC_HEADER] + [r.csv_line() for r in rows]
    (Path(out_dir) / "sync.csv").write_text("\n".join(lines) + "\n")


def run_align(ref_dir, obs_dir, out_dir, cfg, refine=True, on_emit=None):
    """On-line mode: stream observed frames with a fixed lag.

    The mask for observed frame t is produced while frame t + lag is
    being processed and lands in out_dir/mask_%06d.pgm under t's on-disk
    index, which also names t in sync.csv; frame numbers may start above
    0 and have gaps. The trailing lag frames get no mask. A failed
    registration skips nothing: the mask is carried across at the
    identity rotation and the row's residual is nan.
    The observed frames are listed before the reference is loaded, and
    every one's header is checked (size against the reference, color
    when the space is invariant) before out_dir is made, so bad input
    writes no output.
    `on_emit(index, emission)` runs as each label is emitted, with the
    on-disk index of the frame just pushed; `emission.observed_index`
    counts pushed frames from 0.
    """
    indexed, run = _open_run(ref_dir, obs_dir, out_dir, cfg, refine)
    sync = OnlineSynchronizer(run.ref.bank, cfg.sync_config())

    rows = []
    # (on-disk index, image) of the last lag + 1 pushes; an emission
    # names the oldest
    pending = deque(maxlen=cfg.lag + 1)
    for t, path in indexed:
        image = _load_frame(path, cfg, run.direction, run.shape)
        pending.append((t, image))
        emission = sync.push(compute_descriptor(image, cfg.smooth_sigma,
                                                cfg.downsample_factor))
        if emission is not None:
            if on_emit is not None:
                on_emit(t, emission)
            rows.append(_emit(run, *pending[0], emission.label,
                              emission.score))
    _write_sync_csv(run.out, rows)
    return rows


def run_groundtruth(ref_dir, obs_dir, out_dir, cfg, refine=True):
    """Off-line mode: decode the whole sequence jointly, mask every frame.

    The label window spans the full observed ride, so there is no lag
    and no candidate band; `cfg.band` applies to `run_align` only.
    Inputs are checked as in `run_align` before out_dir is made.
    """
    indexed, run = _open_run(ref_dir, obs_dir, out_dir, cfg, refine)

    # every frame is loaded before any is described or registered
    images = [_load_frame(path, cfg, run.direction, run.shape)
              for _, path in indexed]

    descs = [compute_descriptor(image, cfg.smooth_sigma,
                                cfg.downsample_factor) for image in images]
    # no center: the whole row is scored, whatever the band
    table = build_likelihood_table(descs, run.ref.bank, cfg.sync_config())
    labels = map_sequence(table)

    rows = []
    for k, ((t, _), image, label) in enumerate(zip(indexed, images, labels)):
        label = int(label)
        rows.append(_emit(run, t, image, label, float(table[k, label - 1])))
    _write_sync_csv(run.out, rows)
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
