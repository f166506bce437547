"""Host-speed probe: a fixed slice of numpy work, timed between frames.

On a shared host a virtual CPU's throughput changes by up to 1.8x in
spells of seconds to minutes, and CPU time slows with it (no steal time
is reported), so the raw times of one program differ by up to 40%
between invocations. child.py times `probe()` at each mark of an
untraced run (after the reference load, after each mask, after the run
returns), each time straight after an untimed call that brings the
probe's inputs back into the caches. run.py then scales each segment
of the run by REF_MS over the probe times around it: the segment's
time on a core on which the probe takes REF_MS. The probe does the
kinds of numpy work the pipeline spends its time in (einsum over
shifted slices, fancy-index gathers, gradients, elementwise arithmetic)
on arrays of the pipeline's sizes, but runs none of its code, so a
change to the program does not move it. perfbench/NOTES.md, "Timing",
gives the spreads with and without the scaling.
"""

import functools

import numpy as np

# the probe time that scaled times refer to: close to the probe's median
# on the 2-vCPU "Intel(R) Xeon(R) Processor" guest the bounds were set on
REF_MS = 1.0


@functools.cache
def _inputs():
    rng = np.random.default_rng(0)
    img = rng.random((120, 160))
    return (img, rng.random((120, 15, 20)), rng.random((15, 20)),
            rng.integers(0, 120, img.shape), rng.integers(0, 160, img.shape))


def probe():
    """Run the fixed slice of work once. The first call also makes its
    inputs, so callers make one untimed call first."""
    img, bank, desc, iy, ix = _inputs()
    total = 0.0
    for _ in range(2):
        for v in range(3):
            total += float(np.einsum("ij,nij->n", desc[v:, :],
                                     bank[:, :15 - v, :]).sum())
        gathered = img[iy, ix]
        gy, gx = np.gradient(gathered)
        total += float((gx * gy + np.sqrt(gathered)).sum())
        total += float(np.clip(np.floor(img * 3.5).astype(np.int64),
                               0, 2).sum())
    return total


def scaled(segments_s, probe_ms):
    """Each segment scaled to a core on which the probe takes REF_MS.

    Segment 0 ends at probe 0; segment j > 0 lies between probes j-1 and
    j and is scaled by their mean.
    """
    around = probe_ms[:1] + [(a + b) / 2 for a, b in zip(probe_ms,
                                                         probe_ms[1:])]
    return [s * REF_MS / p for s, p in zip(segments_s, around)]
