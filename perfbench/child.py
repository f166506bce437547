"""One measured pipeline run, or one set-up alone, in a fresh process.

run.py starts this file once per measurement with the BLAS/OpenMP
thread counts set to 1, so that each run pays its own import and
reference load, as a user's run does. Times are taken in process, at
marks: the return of `pipeline.load_reference` (the step before the
first observed frame), each `on_emit` callback (align) or mask write
(groundtruth), and the return of `run_align` or `run_groundtruth`.
Untraced, each mark also times `pace.probe()`, the host-speed probe;
the segments between marks leave the probe's time out. The segments
are:

- set-up: from just before `import roadalign` to the first mark;
- up to the first mask;
- each frame: the gap between successive masks;
- from the last mask to the return.

Their sum is the wall time without the probes.

Usage: python3 perfbench/child.py --mode align --data DIR --out DIR
       --result FILE [--trace] [--setup-only]
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_PROBES = 15


def run_pipeline(mode, data_dir, out_dir, tracer=None, marks=None):
    """Run `mode` on the rendered pair in data_dir, writing to out_dir.

    Returns the number of masks. `marks`, when given, is called after
    the reference load, after each mask and after the run returns. With
    a tracer, its wrappers are installed for the run and removed
    afterwards.
    """
    from roadalign import pipeline
    from roadalign.config import PipelineConfig

    data = Path(data_dir)
    cfg = PipelineConfig.load(data / "scene.cfg")
    mark = marks or (lambda: None)
    load_reference, save_mask = pipeline.load_reference, pipeline.save_mask

    def marked_load_reference(*args, **kwargs):
        ref = load_reference(*args, **kwargs)
        mark()
        return ref

    def marked_save_mask(*args, **kwargs):
        save_mask(*args, **kwargs)
        mark()

    pipeline.load_reference = marked_load_reference
    if mode == "groundtruth":
        pipeline.save_mask = marked_save_mask
    if tracer is not None:
        tracer.install()
    try:
        if mode == "align":
            rows = pipeline.run_align(data / "ref", data / "obs", out_dir, cfg,
                                      on_emit=lambda t, emission: mark())
        else:
            rows = pipeline.run_groundtruth(data / "ref", data / "obs",
                                            out_dir, cfg)
        mark()
    finally:
        if tracer is not None:
            tracer.uninstall()
        pipeline.load_reference, pipeline.save_mask = load_reference, save_mask
    return len(rows)


class Marks:
    """Segment times between marks, and the probe time at each mark."""

    def __init__(self, start, probe=None):
        self.last = start
        self.probe = probe
        self.segments_s = []
        self.probe_ms = []

    def __call__(self):
        began = time.perf_counter()
        self.segments_s.append(began - self.last)
        if self.probe is not None:
            self.probe()  # untimed: brings its inputs back into the caches
            # the set-up has one mark to scale it, a frame two: time the
            # first mark's probe several times and keep the median
            times = []
            for _ in range(1 if self.probe_ms else SETUP_PROBES):
                began = time.perf_counter()
                self.probe()
                times.append(1e3 * (time.perf_counter() - began))
            self.probe_ms.append(statistics.median(times))
        self.last = time.perf_counter()


def peak_rss_mb():
    """This process's resident-memory high-water mark (VmHWM), in MiB.

    Not ru_maxrss: across fork and exec Linux carries the parent's
    high-water mark into it, so it would report run.py's memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None):
    start, cpu_start = time.perf_counter(), time.process_time()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("align", "groundtruth"),
                        required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from roadalign import pipeline
    from roadalign.config import PipelineConfig

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(args.mode)
    # traced runs leave the probe out, so that no span times it; its
    # import is free here, as roadalign has imported numpy
    from pace import probe
    marks = Marks(start, None if args.trace else probe)
    if args.setup_only:
        cfg = PipelineConfig.load(args.data / "scene.cfg")
        pipeline.load_reference(args.data / "ref", cfg)
        marks()
        result = {}
    else:
        masks = run_pipeline(args.mode, args.data, args.out, tracer, marks)
        result = {
            "wall_s": time.perf_counter() - start,
            "cpu_s": time.process_time() - cpu_start,
            "masks": masks,
        }
        if tracer is not None:
            tracer.write(args.out / "trace.jsonl")
            result["layers"] = tracer.metrics()
    result["segments_s"] = marks.segments_s
    result["probe_ms"] = marks.probe_ms
    result["peak_rss_mb"] = peak_rss_mb()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
