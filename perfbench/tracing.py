"""Spans around the calls into each roadalign layer, made from outside.

`Tracer.install()` replaces each traced function under the name its
caller looks it up by (for example `roadalign.pipeline.lk_align`, which
the pipeline calls, not `roadalign.spatial.lk_align`), and
`Tracer.uninstall()` puts every original back. Each call becomes one
span: name, start, end, parent span, the observed frame of the loop
iteration it ran in, and the exception it raised, if any. Spans stay in
memory until `write()`.

The span name's first component is its layer. A span's self time is
its duration minus the time covered by descendant spans of other
layers; a child of the same layer (`detect_foreground` inside
`transfer_and_refine`) counts as the parent's own work.
"""

import functools
import inspect
import json
import re
import statistics
import time

import numpy as np

import roadalign._kernels
import roadalign.pipeline
import roadalign.spatial
import roadalign.temporal
import roadalign.transfer

_FRAME_RE = re.compile(r"frame_(\d+)\.ppm$")

# (owner, attribute, span name): every place a traced layer is entered
TRACED = (
    (roadalign.pipeline, "run_align", "pipeline.run_align"),
    (roadalign.pipeline, "run_groundtruth", "pipeline.run_groundtruth"),
    (roadalign.pipeline, "load_reference", "pipeline.load_reference"),
    (roadalign.pipeline, "_register_and_transfer",
     "pipeline.register_and_transfer"),
    (roadalign.pipeline, "load_image", "imagecore.load_image"),
    (roadalign.pipeline, "load_mask", "imagecore.load_mask"),
    (roadalign.pipeline, "save_mask", "imagecore.save_mask"),
    (roadalign.pipeline, "rgb_to_invariant", "invariant.rgb_to_invariant"),
    (roadalign.pipeline, "compute_descriptor", "descriptor.compute_descriptor"),
    (roadalign.pipeline, "build_likelihood_table",
     "temporal.build_likelihood_table"),
    (roadalign.pipeline, "map_sequence", "temporal.map_sequence"),
    (roadalign.pipeline, "lk_align", "spatial.lk_align"),
    (roadalign.pipeline, "transfer_and_refine", "transfer.transfer_and_refine"),
    (roadalign.temporal.OnlineSynchronizer, "push", "temporal.push"),
    (roadalign.temporal, "build_likelihood_table",
     "temporal.build_likelihood_table"),
    (roadalign.temporal, "fixed_lag_infer", "temporal.fixed_lag_infer"),
    (roadalign.temporal, "similarity_to_bank", "descriptor.similarity_to_bank"),
    (roadalign.spatial, "build_pyramid", "imagecore.build_pyramid"),
    (roadalign._kernels, "lk_accumulate", "kernels.lk_accumulate"),
    (roadalign._kernels, "warp_sse", "kernels.warp_sse"),
    (roadalign.transfer, "detect_foreground", "transfer.detect_foreground"),
    (roadalign.transfer, "warp_mask", "spatial.warp_mask"),
    (roadalign.transfer, "warp_image", "spatial.warp_image"),
)

_TABLE_SIGNATURE = inspect.signature(roadalign.temporal.build_likelihood_table)


class Tracer:
    """Span recorder for one pipeline run in `mode` ("align"/"groundtruth")."""

    def __init__(self, mode):
        self.mode = mode
        self.spans = []      # [name, start, end, parent, frame, error]
        self.frame = -1      # observed frame of the current loop iteration
        self._stack = []
        self._originals = []
        self._observed = []  # observed frame indices in load order
        self._second_loop = {}  # groundtruth: calls per loop after loading
        self._reference_loaded = False
        # descriptors scored, kept alive so that their ids stay distinct
        self.scored = {}
        self.columns_in_band = 0
        self.columns_scored = 0
        self.foreground_fracs = []
        self.reference_bytes = 0

    def install(self):
        hooks = {
            "pipeline.load_reference": (None, self._after_load_reference),
            "imagecore.load_image": (self._before_load_image, None),
            "pipeline.register_and_transfer":
                (functools.partial(self._before_second_loop, "register"), None),
            "descriptor.compute_descriptor":
                (functools.partial(self._before_second_loop, "describe"), None),
            "descriptor.similarity_to_bank": (self._before_similarity, None),
            "temporal.build_likelihood_table": (None, self._after_table),
            "transfer.detect_foreground": (None, self._after_foreground),
        }
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            before, after = hooks.get(name, (None, None))
            setattr(owner, attr, self._wrap(original, name, before, after))
            self._originals.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name, before, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.frame,
                    None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- hooks that give spans their frame and count useful work -----------

    def _before_load_image(self, args, kwargs):
        if self._reference_loaded:
            m = _FRAME_RE.search(str(args[0]))
            if m:
                self.frame = int(m.group(1))
                self._observed.append(self.frame)

    def _before_second_loop(self, key, args, kwargs):
        # groundtruth loads every frame first, then describes and registers
        # them in loops of their own, in load order
        if self.mode == "groundtruth" and self._observed:
            k = self._second_loop.get(key, 0)
            self._second_loop[key] = k + 1
            self.frame = self._observed[k]

    def _after_load_reference(self, args, kwargs, ref):
        self._reference_loaded = True
        arrays = {}
        for a in [*ref.feature, *ref.diff, *ref.masks, ref.bank.dx, ref.bank.dy]:
            arrays[id(a)] = a
        self.reference_bytes = sum(a.nbytes for a in arrays.values())

    def _before_similarity(self, args, kwargs):
        self.scored[id(args[0])] = args[0]

    def _after_table(self, args, kwargs, table):
        bound = _TABLE_SIGNATURE.bind(*args, **kwargs)
        cfg, center = bound.arguments["cfg"], bound.arguments.get("center")
        rows, n = table.shape
        in_band = n
        if cfg.candidate_band is not None and center is not None:
            lo = max(1, center - cfg.candidate_band)
            hi = min(n, center + cfg.candidate_band)
            in_band = max(0, hi - lo + 1)
        self.columns_in_band += rows * in_band
        self.columns_scored += rows * n

    def _after_foreground(self, args, kwargs, foreground):
        valid = np.count_nonzero(args[2])
        if valid:
            self.foreground_fracs.append(np.count_nonzero(foreground) / valid)

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        keys = ("name", "start", "end", "parent", "frame", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def self_times(self):
        """Per-span self time, in seconds, under the rule in the module doc."""
        layer = [s[0].split(".")[0] for s in self.spans]
        covered = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[i][3]
            if parent >= 0:
                dur = self.spans[i][2] - self.spans[i][1]
                covered[parent] += (covered[i] if layer[i] == layer[parent]
                                    else dur)
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def metrics(self):
        """Per-layer metrics of the run; see BENCHMARK.json's per_layer."""
        selfs = self.self_times()
        durs, own, top_self = {}, {}, {}
        errors = {}
        for i, (name, start, end, parent, _, error) in enumerate(self.spans):
            durs.setdefault(name, []).append(end - start)
            own[name] = own.get(name, 0.0) + selfs[i]
            if error:
                errors[name] = errors.get(name, 0) + 1
            layer = name.split(".")[0]
            if parent < 0 or self.spans[parent][0].split(".")[0] != layer:
                top_self[layer] = top_self.get(layer, 0.0) + selfs[i]

        def calls(name):
            return len(durs.get(name, ()))

        def ms_p50(*names):
            values = [d for n in names for d in durs.get(n, ())]
            return 1e3 * statistics.median(values) if values else 0.0

        def total(*names):
            return sum(sum(durs.get(n, ())) for n in names)

        def ratio(a, b):
            return a / b if b else 0.0

        sim = "descriptor.similarity_to_bank"
        lk = "spatial.lk_align"
        infer = ("temporal.fixed_lag_infer", "temporal.map_sequence")
        lk_ms = [1e3 * d for d in durs.get(lk, ())]
        return {
            f"{sim}.calls": calls(sim),
            f"{sim}.calls_per_frame": ratio(calls(sim), len(self._observed)),
            f"{sim}.ms_p50": ms_p50(sim),
            f"{sim}.self_s": own.get(sim, 0.0),
            "temporal.rows_useful_ratio": ratio(len(self.scored), calls(sim)),
            "temporal.columns_useful_ratio": ratio(self.columns_in_band,
                                                   self.columns_scored),
            "temporal.self_s": top_self.get("temporal", 0.0),
            "temporal.infer.ms_p50": ms_p50(*infer),
            "temporal.infer.s": total(*infer),
            "temporal.build_likelihood_table.s":
                total("temporal.build_likelihood_table"),
            "temporal.sync_losses": errors.get("temporal.push", 0),
            f"{lk}.calls": calls(lk),
            f"{lk}.ms_p50": ms_p50(lk),
            f"{lk}.ms_tail": tail(lk_ms)[0],
            f"{lk}.self_s": own.get(lk, 0.0),
            "spatial.gn_steps_per_align":
                ratio(calls("kernels.lk_accumulate"), calls(lk)),
            "spatial.sse_evals_per_align":
                ratio(calls("kernels.warp_sse"), calls(lk)),
            "spatial.fallbacks": errors.get(lk, 0),
            "kernels.lk_accumulate.ms_p50": ms_p50("kernels.lk_accumulate"),
            "kernels.warp_sse.ms_p50": ms_p50("kernels.warp_sse"),
            "imagecore.build_pyramid.calls": calls("imagecore.build_pyramid"),
            "transfer.transfer_and_refine.ms_p50":
                ms_p50("transfer.transfer_and_refine"),
            "transfer.transfer_and_refine.self_s":
                own.get("transfer.transfer_and_refine", 0.0),
            "transfer.foreground_frac": (statistics.fmean(self.foreground_fracs)
                                         if self.foreground_fracs else 0.0),
            "pipeline.load_reference.s": total("pipeline.load_reference"),
            "pipeline.reference_resident_mb": self.reference_bytes / 2 ** 20,
            "imagecore.load_image.calls": calls("imagecore.load_image"),
            "imagecore.load_image.ms_p50": ms_p50("imagecore.load_image"),
            "invariant.rgb_to_invariant.ms_p50":
                ms_p50("invariant.rgb_to_invariant"),
            "descriptor.compute_descriptor.ms_p50":
                ms_p50("descriptor.compute_descriptor"),
            "imagecore.save_mask.ms_p50": ms_p50("imagecore.save_mask"),
        }


def tail(samples, per_run=None):
    """(value, percentile) at the highest whole percentile that leaves at
    least ten of `per_run` samples above it (default: all of them).

    Pooled samples of several runs use one run's count, so that the
    percentile does not change with the number of runs.
    """
    n = len(samples) if per_run is None else per_run
    if n <= 10:
        return (max(samples) if samples else 0.0), 100
    pct = (100 * (n - 10)) // n
    return float(np.percentile(samples, pct)), pct
