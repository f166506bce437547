import os
import subprocess
import sys
from pathlib import Path

import roadalign

# imports the CLI, then runs both modes with refinement, in a fresh process
_RUN_BOTH_MODES = """
import sys
import roadalign, roadalign.cli
from roadalign.config import PipelineConfig
from roadalign.pipeline import run_align, run_groundtruth
root, out = sys.argv[1], sys.argv[2]
cfg = PipelineConfig.load(root + "/scene.cfg")
assert run_align(root + "/ref", root + "/obs", out + "/align", cfg, refine=True)
assert run_groundtruth(root + "/ref", root + "/obs", out + "/gt", cfg,
                       refine=True)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_run_imports_scipy(mini_pair, tmp_path):
    """numpy is the only runtime dependency: scipy is for the tests alone.

    A lazy scipy import would only move its cost from set-up into the
    first frame, so the run must not load it at all.
    """
    src = Path(roadalign.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _RUN_BOTH_MODES, str(mini_pair.root),
         str(tmp_path)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.strip() == "[]"


# imports the pipeline alone, runs both modes, then reads the package's
# lazy names, in a fresh process
_RUN_WITHOUT_SYNTH = """
import sys
from roadalign.config import PipelineConfig
from roadalign.pipeline import run_align, run_groundtruth
root, out = sys.argv[1], sys.argv[2]
cfg = PipelineConfig.load(root + "/scene.cfg")
assert run_align(root + "/ref", root + "/obs", out + "/align", cfg)
assert run_groundtruth(root + "/ref", root + "/obs", out + "/gt", cfg)
assert "roadalign.synth" not in sys.modules
import roadalign
assert roadalign.make_pair.__module__ == "roadalign.synth"
assert all(getattr(roadalign, name) is not None for name in roadalign.__all__)
try:
    roadalign.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
print("ok")
"""


def test_a_run_does_not_import_synth(mini_pair, tmp_path):
    """synth renders test rides; a run that imports the pipeline alone
    must not pay for importing it, while `roadalign.make_pair` still
    resolves."""
    src = Path(roadalign.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SYNTH, str(mini_pair.root),
         str(tmp_path)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.strip() == "ok"


# runs align through the command line in a fresh process
_CLI_ALIGN = """
import sys
import roadalign.cli
root, out = sys.argv[1], sys.argv[2]
assert roadalign.cli.main(["align", root + "/ref", root + "/obs", out,
                           "--config", root + "/scene.cfg"]) == 0
print("roadalign.synth" in sys.modules)
"""


def test_the_cli_imports_synth_for_synth_alone(mini_pair, tmp_path):
    """Only the synth command renders, so only it imports the renderer."""
    src = Path(roadalign.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _CLI_ALIGN, str(mini_pair.root),
         str(tmp_path / "out")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.strip().splitlines()[-1] == "False"
