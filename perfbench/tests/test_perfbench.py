"""Self-tests of the benchmark on the `mini` preset (well under a second a run).

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

from child import SETUP_PROBES, Marks, run_pipeline
from outputs import CheckFailed, check_run, fingerprint
from pace import REF_MS, scaled
from tracing import TRACED, Tracer
from conftest import BENCH

MINI_MASKS = {"align": 14 - 5, "groundtruth": 14}


def _is_time(name):
    return name.endswith(("_s", ".s", "ms_p50", "ms_tail"))


@pytest.mark.parametrize("mode", ["align", "groundtruth"])
def test_traced_runs_repeat_their_counts(mini_data, tmp_path, mode):
    layers = []
    for k in range(2):
        tracer = Tracer(mode)
        run_pipeline(mode, mini_data, tmp_path / f"run{k}", tracer)
        layers.append({name: value for name, value in tracer.metrics().items()
                       if not _is_time(name)})
    assert layers[0] == layers[1]
    assert layers[0]["spatial.lk_align.calls"] == MINI_MASKS[mode]
    assert layers[0]["imagecore.load_image.calls"] == 18 + 14


@pytest.mark.parametrize("mode", ["align", "groundtruth"])
def test_untraced_run_after_traced_one_is_unchanged(mini_data, tmp_path, mode):
    originals = [owner.__dict__[attr] for owner, attr, _ in TRACED]
    run_pipeline(mode, mini_data, tmp_path / "plain")
    tracer = Tracer(mode)
    run_pipeline(mode, mini_data, tmp_path / "traced", tracer)
    assert tracer.spans
    assert [owner.__dict__[attr] for owner, attr, _ in TRACED] == originals
    run_pipeline(mode, mini_data, tmp_path / "after")
    plain = fingerprint(tmp_path / "plain")
    assert fingerprint(tmp_path / "traced") == plain
    assert fingerprint(tmp_path / "after") == plain


def test_spans_nest_and_share_the_frame_of_their_iteration(mini_data, tmp_path):
    tracer = Tracer("align")
    run_pipeline("align", mini_data, tmp_path / "out", tracer)
    spans = tracer.spans
    for name, start, end, parent, frame, _ in spans:
        assert start <= end
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= start and end <= p[2]
            if p[4] >= 0:  # the parent ran inside a loop iteration
                assert frame == p[4]
    # each lk_align call runs in the iteration of a later observed frame
    frames = [s[4] for s in spans if s[0] == "spatial.lk_align"]
    assert frames == list(range(5, 14))
    assert all(t >= -1e-9 for t in tracer.self_times())


def test_check_run_accepts_good_outputs_and_rejects_broken_ones(mini_data,
                                                                 tmp_path):
    out = tmp_path / "out"
    run_pipeline("align", mini_data, out)
    _, accuracy = check_run(out, mini_data, MINI_MASKS["align"])
    assert 0.0 < accuracy["quality_mean"] <= 1.0
    assert accuracy["success_frac"] == 1.0

    with pytest.raises(CheckFailed, match="masks written"):
        check_run(out, mini_data, MINI_MASKS["align"] + 1)

    lines = (out / "sync.csv").read_text().splitlines()
    first, second = lines[1].split(","), lines[2].split(",")
    first[1], second[1] = "9", "8"
    lines[1:3] = [",".join(first), ",".join(second)]
    (out / "sync.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="labels decrease"):
        check_run(out, mini_data, MINI_MASKS["align"])

    (out / "sync.csv").write_text("observed_index\n")
    with pytest.raises(CheckFailed, match="header"):
        check_run(out, mini_data, MINI_MASKS["align"])


def test_metric_names_match_benchmark_json(mini_data, tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tracer = Tracer("align")
    run_pipeline("align", mini_data, tmp_path / "out", tracer)
    per_layer = set(tracer.metrics()) | {"trace.overhead_frac"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "street",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaled_refers_each_segment_to_the_probes_around_it():
    # set-up ends at probe 0; later segments lie between two probes
    assert scaled([0.5, 0.1, 0.2], [2.0, 1.0, 3.0]) == pytest.approx(
        [0.5 * REF_MS / 2.0, 0.1 * REF_MS / 1.5, 0.2 * REF_MS / 2.0])


@pytest.mark.parametrize("mode", ["align", "groundtruth"])
def test_marks_time_every_segment_and_leave_the_probe_out(mini_data, tmp_path,
                                                          mode):
    calls = []

    def slow_probe():
        calls.append(None)
        time.sleep(0.01)

    marks = Marks(time.perf_counter(), slow_probe)
    began = time.perf_counter()
    masks = run_pipeline(mode, mini_data, tmp_path / "out", marks=marks)
    elapsed = time.perf_counter() - began
    # the reference load, each mask, the return: each one untimed and
    # one timed probe, the set-up mark more
    assert masks == MINI_MASKS[mode]
    assert len(marks.segments_s) == len(marks.probe_ms) == masks + 2
    assert len(calls) == 2 * (masks + 2) + SETUP_PROBES - 1
    assert all(ms >= 10.0 for ms in marks.probe_ms)
    assert sum(marks.segments_s) < elapsed - 0.01 * len(calls)
