"""Road mask transfer with dynamic background subtraction.

The reference road annotation is warped onto the observed frame, then
pixels that disagree with the warped reference appearance (vehicles,
pedestrians, anything that moved) are detected by thresholding the
absolute difference image and removed from the mask. Refinement only
ever removes pixels.

Connected components (4-connected) are found on runs, the maximal
stretches of set pixels in a row. A run joins the runs of the row above
that share a column with it; these pairs come from `searchsorted` over
the runs' starts and stops. The pairs are merged by hooking each root
onto the smaller of the two roots, with pointer jumping, until every
pair shares a root.
"""

import numpy as np

from .spatial import warp_image, warp_mask

MIN_BLOB_PX = 25  # foreground blobs smaller than this are noise, not objects
HISTOGRAM_BINS = 256  # Otsu histogram cells over the difference range [0, 1]


def _histogram(values, bins):
    """`np.histogram(values, bins, range=(0, 1))[0]` for a power-of-two
    `bins`: 1.0 closes the last cell, values outside [0, 1] are left out.

    v * bins only scales by a power of two, so the floor of the product
    is v's cell exactly; the cast floors the non-negative products.
    """
    if not (values.min() >= 0.0 and values.max() <= 1.0):
        values = values[(values >= 0.0) & (values <= 1.0)]
    cells = (values * bins).astype(np.intp)
    np.minimum(cells, bins - 1, out=cells)
    return np.bincount(cells, minlength=bins)


def otsu_threshold(img, bins=HISTOGRAM_BINS):
    """Bin-edge threshold maximizing between-class variance.

    The histogram uses `bins` equal-width cells over [0, 1], `bins` a
    power of two, as `np.histogram` counts them (`_histogram`).
    Candidate thresholds are the interior bin edges and ties resolve to
    the lowest edge. Foreground is everything strictly above the
    threshold, so a constant image (returned unchanged as the threshold)
    yields an empty foreground.
    """
    if bins < 2 or bins & (bins - 1):
        raise ValueError(f"bins must be a power of two, got {bins}")
    values = np.asarray(img, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("empty input")
    lo = values.min()
    if lo == values.max():
        return float(lo)
    hist = _histogram(values, bins)
    centers = (np.arange(bins) + 0.5) / bins
    total = hist.sum()
    weighted = hist * centers
    s_total = weighted.sum()
    w0 = np.cumsum(hist)[:-1]
    s0 = np.cumsum(weighted)[:-1]
    w1 = total - w0
    s1 = s_total - s0
    ok = (w0 > 0) & (w1 > 0)
    variance = np.zeros(bins - 1)
    mu0 = np.where(w0 > 0, s0 / np.where(w0 > 0, w0, 1), 0.0)
    mu1 = np.where(w1 > 0, s1 / np.where(w1 > 0, w1, 1), 0.0)
    variance[ok] = (w0 * w1)[ok] * (mu0 - mu1)[ok] ** 2
    k = int(np.argmax(variance)) + 1  # first max = lowest edge
    return k / bins


def _components(mask):
    """Runs of True in `mask` and the 4-connected component of each run.

    Returns the runs' rows, starts and stops (exclusive), in row order,
    and for each run the index of its component's first run.
    """
    h, w = mask.shape
    edged = np.zeros((h, w + 2), dtype=bool)
    edged[:, 1:-1] = mask
    rows, cols = np.nonzero(edged[:, 1:] != edged[:, :-1])
    rows, starts, stops = rows[::2], cols[::2], cols[1::2]
    # keys order runs by row, then column; a row's keys never reach the next
    stride = w + 2
    above = (rows - 1) * stride
    first = np.searchsorted(rows * stride + stops, above + starts, side="right")
    last = np.searchsorted(rows * stride + starts, above + stops)
    count = np.maximum(last - first, 0)
    root = np.arange(len(rows))
    # run a[p] touches run b[p] of the row above
    a = np.repeat(root, count)
    b = np.arange(len(a)) + np.repeat(first - np.cumsum(count) + count, count)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            return rows, starts, stops, root
        np.minimum.at(root, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
        while (root[root] != root).any():
            root = root[root]


def _paint(shape, rows, starts, stops):
    """Boolean image of the given runs."""
    h, w = shape
    edges = np.zeros((h, w + 1), dtype=np.int8)
    edges[rows, starts] = 1
    edges[rows, stops] = -1
    return np.cumsum(edges, axis=1, dtype=np.int8)[:, :w].astype(bool)


def fill_holes(mask):
    """Fill background regions not 4-connected to the image border."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    rows, starts, stops, root = _components(~mask)
    on_border = (rows == 0) | (rows == h - 1) | (starts == 0) | (stops == w)
    outside = np.zeros(len(rows), dtype=bool)
    outside[root[on_border]] = True
    hole = ~outside[root]
    return mask | _paint(mask.shape, rows[hole], starts[hole], stops[hole])


def remove_small_components(mask, min_px):
    """Drop 4-connected components smaller than min_px pixels."""
    mask = np.asarray(mask, dtype=bool)
    if min_px <= 1 or not mask.any():
        return mask.copy()
    rows, starts, stops, root = _components(mask)
    sizes = np.bincount(root, weights=stops - starts)
    keep = sizes[root] >= min_px
    return _paint(mask.shape, rows[keep], starts[keep], stops[keep])


def detect_foreground(reference_warped, observed, valid):
    """Foreground of the observed frame against the warped reference.

    Thresholds |warped - observed| over the valid pixels with Otsu,
    fills enclosed holes, and drops blobs below MIN_BLOB_PX. Invalid
    pixels never enter the histogram and are never foreground.
    """
    ref = np.asarray(reference_warped, dtype=np.float64)
    obs = np.asarray(observed, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if ref.shape != obs.shape or ref.shape != valid.shape:
        raise ValueError("shapes differ")
    if not valid.any():
        return np.zeros_like(valid)
    diff = np.abs(ref - obs)
    threshold = otsu_threshold(diff[valid])
    raw = (diff > threshold) & valid
    return remove_small_components(fill_holes(raw), MIN_BLOB_PX)


def transfer_and_refine(reference_mask, reference_frame, observed_frame,
                        omega, intrinsics, warp=None):
    """Warp the reference road mask and subtract detected foreground.

    `warp`, when given, is a (warped, valid) warp of `reference_frame`
    at `omega` computed before: `lk_align` returns its float32 one for
    its final rotation. Otherwise the frame is warped here.
    The output is always a subset of the warped mask.
    """
    transferred = warp_mask(reference_mask, omega, intrinsics)
    if warp is None:
        warp = warp_image(reference_frame, omega, intrinsics)
    warped, valid = warp
    foreground = detect_foreground(warped, observed_frame, valid)
    return transferred & ~foreground
