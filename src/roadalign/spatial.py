"""Spatial registration under a small-rotation conjugate homography.

Two frames taken from (nearly) the same position differ by a camera
rotation, so pixels move along the field of the conjugated rotation
K R K^-1. For small angles that field is quadratic in the image
coordinates and linear in the three rotation angles, which makes
Gauss-Newton refinement over the angles cheap and stable.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import AlignmentError
from .imagecore import build_pyramid

MAX_ROTATION = 0.35  # radians; beyond this the small-angle model is meaningless
MIN_PIXELS = 16
MAX_STEP_HALVINGS = 8
MAX_ITERATIONS = 50  # Gauss-Newton steps per pyramid level
ROBUST_SKIP = 2  # border pixels left out of every residual and LK sum
# pixels; a level ends once a rotation step moves no pixel this far.
# Registration against the true rotation is off by ~0.7 px on the street
# scenes, so steps below 0.03 px refine nothing the masks can show: from
# 0.003 to 0.03 px, quality moved by under 0.001 and the rotation error
# by under 1%, while SSE warps per align fell by a third.
MIN_STEP_PX = 0.03


@dataclass(frozen=True)
class RotationParams:
    """Rotation angles (radians) about the camera x, y, z axes."""

    omega_x: float = 0.0
    omega_y: float = 0.0
    omega_z: float = 0.0

    def __post_init__(self):
        for v in (self.omega_x, self.omega_y, self.omega_z):
            if not math.isfinite(v):
                raise ValueError("rotation angles must be finite")
            if abs(v) >= MAX_ROTATION:
                raise ValueError(
                    f"|angle| must stay below {MAX_ROTATION} rad, got {v}"
                )


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole focal length and principal point, in pixels."""

    focal_px: float
    cx: float
    cy: float

    def __post_init__(self):
        if not self.focal_px > 0:
            raise ValueError("focal_px must be positive")
        for v in (self.cx, self.cy):
            if not math.isfinite(v):
                raise ValueError("principal point must be finite")

    def scaled(self, factor):
        """Intrinsics of a pyramid level downscaled by `factor`."""
        return CameraIntrinsics(self.focal_px / factor, self.cx / factor,
                                self.cy / factor)


def warp_image(src, omega, intrinsics):
    """Backward-warp src by the rotation flow with bilinear sampling.

    Returns (warped, valid); pixels whose sampling position leaves the
    image are zero and marked invalid. `warped` is float32 for a float32
    src and float64 for any other.
    """
    return _kernels.warp_bilinear(
        src, omega.omega_x, omega.omega_y, omega.omega_z,
        intrinsics.focal_px, intrinsics.cx, intrinsics.cy,
    )


def warp_mask(mask, omega, intrinsics):
    """Backward-warp a boolean mask with nearest sampling; outside is False."""
    mask = np.asarray(mask, dtype=bool)
    return _kernels.warp_nearest(
        mask, omega.omega_x, omega.omega_y, omega.omega_z,
        intrinsics.focal_px, intrinsics.cx, intrinsics.cy,
    )


def _mse(padded, obs, omega_arr, f, cx, cy):
    """(mean squared residual, count, warped, valid, resid) of the frame
    that `padded` pads, warped by omega; see `_kernels.warp_sse`."""
    sse, n, warped, valid, resid = _kernels.warp_sse(
        padded, obs, omega_arr[0], omega_arr[1], omega_arr[2], f, cx, cy,
        ROBUST_SKIP)
    return (sse / n if n else math.inf), n, warped, valid, resid


def _step_bound(intrinsics, shape):
    """2 x 3 matrix B with (|u|, |v|) <= B @ |step| at every pixel.

    (u, v) is the displacement that a rotation step makes at one pixel
    of a frame of `shape`. Every flow coefficient grows with |x| and |y|,
    so their values at the corner farthest from the principal point
    bound them.
    """
    h, w = shape
    k = intrinsics
    corner = _kernels.FlowBasis(max(abs(k.cx), abs(w - 1 - k.cx)),
                                max(abs(k.cy), abs(h - 1 - k.cy)), k.focal_px)
    return np.array([[corner.xy, corner.fx, corner.y],
                     [-corner.fy, corner.xy, corner.x]])


def lk_align(reference_frame, observed_frame, intrinsics, levels=3):
    """Estimate the rotation aligning reference onto observed.

    Coarse-to-fine Gauss-Newton over the three angles, from zero, over
    the levels, at most `levels`, that `build_pyramid` builds for the
    frame size, with at most MAX_ITERATIONS steps per level. Each
    candidate step must not increase the mean squared residual; on
    increase the step is halved up to 8 times, after which the level
    ends. A level also ends after an accepted step, or at a halved step,
    that moves no pixel of the level by MIN_STEP_PX or more.

    Both frames are taken as float32, so a float32 frame enters without
    a copy; their pyramids, warps and the Gauss-Newton terms are
    float32, and the angles, the normal equations and the residual are
    float64.

    Returns (RotationParams, mean squared residual on the finest level,
    (warped, valid)). The last is the finest level's warp of the
    reference at the returned rotation, the one that accepted it; it is
    the float32 warp `warp_image(reference_frame.astype(np.float32),
    omega, intrinsics)`, so that `transfer_and_refine` need not warp the
    same frame again.
    Raises AlignmentError on singular normal equations, non-finite
    values, or estimates leaving the small-rotation range.
    """
    ref = np.asarray(reference_frame, dtype=np.float32)
    obs = np.asarray(observed_frame, dtype=np.float32)
    if ref.shape != obs.shape:
        raise ValueError("frame shapes differ")
    omega = np.zeros(3)

    # each reference level is padded once for all of its warps
    pyr_ref = [_kernels.pad_edge(a, np.float32)
               for a in build_pyramid(ref, levels)]
    pyr_obs = build_pyramid(obs, levels)

    mse = math.inf
    for level in range(len(pyr_ref) - 1, -1, -1):
        k = intrinsics.scaled(2 ** level)
        r_pad = pyr_ref[level]
        o_img = pyr_obs[level]
        f, cx, cy = k.focal_px, k.cx, k.cy
        bound = _step_bound(k, o_img.shape)
        mse, n, warped, valid, resid = _mse(r_pad, o_img, omega, f, cx, cy)
        if n < MIN_PIXELS:
            raise AlignmentError("too few valid pixels for alignment")
        for _ in range(MAX_ITERATIONS):
            # the warp at omega is the one that accepted omega
            hess, grad, n_acc = _kernels.lk_accumulate(
                warped, valid, resid, f, cx, cy, ROBUST_SKIP)
            if n_acc < MIN_PIXELS:
                raise AlignmentError("too few valid pixels for alignment")
            try:
                delta = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                raise AlignmentError(
                    "singular normal equations (textureless input)"
                ) from None
            if not np.all(np.isfinite(delta)):
                raise AlignmentError("non-finite update step")
            accepted = False
            for halving in range(MAX_STEP_HALVINGS + 1):
                step_px = max(bound @ np.abs(delta))
                if halving and step_px < MIN_STEP_PX:
                    break
                candidate = omega + delta
                cand_mse, cand_n, *cand_warp = _mse(
                    r_pad, o_img, candidate, f, cx, cy)
                if cand_n >= MIN_PIXELS and cand_mse <= mse:
                    omega, mse = candidate, cand_mse
                    warped, valid, resid = cand_warp
                    accepted = True
                    break
                delta = delta / 2.0
            if not accepted or step_px < MIN_STEP_PX:
                break

    if not math.isfinite(mse):
        raise AlignmentError("non-finite residual")
    if np.any(np.abs(omega) >= MAX_ROTATION):
        raise AlignmentError("estimate left the small-rotation range")
    return RotationParams(*omega), float(mse), (warped, valid)
