"""Pipeline benchmark: render a workload from a seed, run it, check it, report.

Usage:
    python3 perfbench/run.py --workload street --seed 7 --seconds 45 --trace 0

Workloads (see perfbench/NOTES.md for why each was chosen):
    street     align on the street preset (160x120, 120 ref / 90 obs frames)
    street_gt  groundtruth on the same street pair
    long_ref   align against a 600-frame reference ride at 80x60

The inputs are rendered once per (pair, seed) with `synth.make_pair` into
.perfbench/data/ and reused; rendering is the benchmark's own set-up and
stays outside every metric. The load is a closed loop: one process at a
time replays the rendered frames from disk as fast as the pipeline takes
them, each measured run in a fresh single-threaded child process
(perfbench/child.py). With --trace 0 it repeats two set-up-only
children and one whole pipeline run (at least twice) while another
round fits in --seconds, and reports the end-to-end metrics, each time
scaled by the host-speed probe timed beside it (perfbench/pace.py; see
NOTES.md, "Timing"). With --trace 1 it makes one untraced run and then
traced runs (at least one) while another fits in --seconds, and reports
the per-layer metrics and the tracing overhead.

Every pipeline run's outputs are checked (mask count, sync.csv parses,
labels never decrease, run_eval scores them against the truth masks) and
fingerprinted; runs of one invocation must write identical outputs. A run
that fails counts in "failed". The last line of standard output is the
JSON result; the full record goes to .perfbench/results/.
"""

import os

# one thread per BLAS/OpenMP pool, here and in every child run
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_ONLY = 2  # set-up-only children before each pipeline run
MIN_RUNS = 2
CHILD_TIMEOUT_S = 150
CACHED_PAIRS = 12  # rendered seeds kept per pair; older ones are deleted


class Runner:
    """Starts child runs one at a time and keeps their results and failures."""

    def __init__(self, workload, data_dir, out_root):
        self.workload = workload
        self.data = data_dir
        self.out_root = out_root
        self.attempted = 0
        self.failures = []      # (operation, reason)
        self.setups = []        # scaled set-up seconds of untraced children
        self.raw_setups = []    # the same, unscaled
        self.runs = []          # untraced pipeline results
        self.traced = []        # traced pipeline results
        self.fingerprint = None
        self.accuracy = None

    def _fail(self, op, reason):
        self.failures.append((op, reason))
        print(f"op {op} FAILED: {reason}")

    def child(self, setup_only=False, trace=False):
        from outputs import CheckFailed, check_run
        from pace import scaled

        self.attempted += 1
        op = self.attempted
        out = self.out_root / f"op{op:02d}"
        result_path = self.out_root / f"op{op:02d}.json"
        cmd = [sys.executable, str(HERE / "child.py"),
               "--mode", self.workload.mode, "--data", str(self.data),
               "--out", str(out), "--result", str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        try:
            proc = subprocess.run(cmd, env=os.environ.copy(), cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._fail(op, f"timed out after {CHILD_TIMEOUT_S} s")
            return
        if proc.returncode != 0:
            self._fail(op, f"exit {proc.returncode}: "
                           f"{proc.stderr.strip().splitlines()[-1:]}")
            return
        result = json.loads(result_path.read_text())
        if not trace:
            self.raw_setups.append(result["segments_s"][0])
            self.setups.append(scaled(result["segments_s"][:1],
                                      result["probe_ms"][:1])[0])
        if setup_only:
            print(f"op {op} setup: {result['segments_s'][0]:.3f} s")
            return
        (self.traced if trace else self.runs).append(result)
        print(f"op {op} {'traced ' if trace else ''}run: "
              f"wall {result['wall_s']:.3f} s, "
              f"setup {result['segments_s'][0]:.3f} s, {result['masks']} masks")
        try:
            fingerprint, accuracy = check_run(out, self.data,
                                              self.workload.expected_masks)
        except CheckFailed as exc:
            self._fail(op, str(exc))
            return
        if self.fingerprint is None:
            self.fingerprint, self.accuracy = fingerprint, accuracy
        elif fingerprint != self.fingerprint:
            self._fail(op, "outputs differ from the first run's")


def repeat(start, seconds, step, done, hopeless):
    """Call `step` until `done()` and another call, if it took as long as
    the last one, would end after `seconds` from `start`; stop early when
    `hopeless()`. Stopping before the budget rather than after it keeps
    an invocation's length near `seconds` on a slow host too."""
    last = 0.0
    while not done() or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        step()
        last = time.perf_counter() - began
        if hopeless():
            break


def render(pair, seed):
    """Rendered pair directory and render seconds (None when cached)."""
    from roadalign.synth import make_pair
    from workloads import PAIRS

    final = WORK / "data" / f"{pair}-seed{seed}"
    if (final / "scene.cfg").is_file():
        return final, None
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(final, ignore_errors=True)
    start = time.perf_counter()
    make_pair(*PAIRS[pair](seed), tmp)
    elapsed = time.perf_counter() - start
    os.replace(tmp, final)
    cached = sorted(final.parent.glob(f"{pair}-seed*[0-9]"),
                    key=lambda p: p.stat().st_mtime)
    for old in cached[:-CACHED_PAIRS]:
        shutil.rmtree(old)
    return final, elapsed


def machine_facts():
    import numpy
    import scipy
    from roadalign import _kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": _kernels.get_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "child_thread_env": THREAD_ENV,
    }


def end_to_end(runner):
    from pace import scaled
    from tracing import tail

    def metrics_of(segments):
        """The run timings, from each run's segments: set-up, up to the
        first mask, each frame, after the last mask."""
        frame_ms = [1e3 * t for run in segments for t in run[2:-1]]
        tail_ms, tail_pct = tail(frame_ms, per_run=len(segments[0]) - 3)
        return {
            "frames_per_s": statistics.median(
                r["masks"] / sum(run[1:])
                for r, run in zip(runner.runs, segments)),
            "frame_ms_p50": statistics.median(frame_ms),
            "frame_ms_tail": tail_ms,
            "wall_s": statistics.median(sum(run) for run in segments),
        }, tail_pct

    runs = runner.runs
    metrics, tail_pct = metrics_of([scaled(r["segments_s"], r["probe_ms"])
                                    for r in runs])
    metrics.update({
        "setup_s": statistics.median(runner.setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        **runner.accuracy,
    })
    # the same timings unscaled, for comparison; not metrics
    raw, _ = metrics_of([r["segments_s"] for r in runs])
    raw["setup_s"] = statistics.median(runner.raw_setups)
    notes = {"frame_ms_tail_percentile": tail_pct,
             "frame_ms_samples_per_run": len(runs[0]["segments_s"]) - 3,
             "setup_samples": len(runner.setups),
             "pipeline_runs": len(runs),
             "probe_ms_p50": statistics.median(
                 p for r in runs for p in r["probe_ms"]),
             "unscaled": raw}
    return metrics, notes


def per_layer(runner, units):
    metrics = {}
    for name in runner.traced[0]["layers"]:
        values = [r["layers"][name] for r in runner.traced]
        metrics[name] = (values[0] if len(set(values)) == 1
                         else statistics.median(values))
    # untraced runs time the probe, traced ones do not: compare the sums
    # of their segments, which leave the probe out
    metrics["trace.overhead_frac"] = (
        statistics.median(sum(r["segments_s"]) for r in runner.traced)
        / statistics.median(sum(r["segments_s"]) for r in runner.runs) - 1.0)
    # everything but the times must repeat exactly between traced runs
    counts = [{k: v for k, v in r["layers"].items()
               if units[k] not in ("s", "ms")} for r in runner.traced]
    if any(c != counts[0] for c in counts[1:]):
        runner._fail(runner.attempted, "counts differ between traced runs")
    return metrics, {"traced_runs": len(runner.traced)}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="roadalign pipeline benchmark",
        epilog="see perfbench/NOTES.md for the workloads and metrics")
    parser.add_argument("--workload", required=True,
                        choices=("street", "street_gt", "long_ref"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "roadalign" / "__init__.py").is_file():
        print(f"error: no roadalign sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    data, render_s = render(workload.pair, args.seed)
    print("render_s " + ("cached" if render_s is None else f"{render_s:.3f}")
          + " (outside every metric)")
    facts = machine_facts()
    print("machine " + json.dumps(facts))

    # only the latest invocation's outputs are kept, for inspection
    shutil.rmtree(WORK / "runs", ignore_errors=True)
    out_root = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_root.mkdir(parents=True)
    runner = Runner(workload, data, out_root)
    start = time.perf_counter()
    if args.trace:
        runner.child()
        repeat(start, args.seconds, lambda: runner.child(trace=True),
               done=lambda: bool(runner.traced),
               hopeless=lambda: runner.failures and not runner.traced)
    else:
        def setups_then_run():
            for _ in range(SETUP_ONLY):
                runner.child(setup_only=True)
            runner.child()

        repeat(start, args.seconds, setups_then_run,
               done=lambda: len(runner.runs) >= MIN_RUNS,
               hopeless=lambda: runner.failures and not runner.runs)
    measured_s = time.perf_counter() - start

    if not runner.runs or (args.trace and not runner.traced) \
            or runner.accuracy is None:
        print("error: no usable run; see the failures above", file=sys.stderr)
        return 3
    if args.trace:
        declared = spec["per_layer"]
        values, notes = per_layer(runner, {m["name"]: m["unit"] for m in declared})
    else:
        values, notes = end_to_end(runner)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "render_s": render_s, "measured_s": measured_s, "machine": facts,
        "fingerprint": runner.fingerprint, "notes": notes,
        "failures": runner.failures, "metrics": metrics,
        "setups_scaled_s": runner.setups, "setups_s": runner.raw_setups,
        "runs": [{k: r[k] for k in ("wall_s", "cpu_s", "masks", "segments_s",
                                    "probe_ms")}
                 for r in runner.runs + runner.traced],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")
    print("fingerprint " + json.dumps(runner.fingerprint))
    print("notes " + json.dumps(notes))
    print(f"record {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len({op for op, _ in runner.failures}),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
