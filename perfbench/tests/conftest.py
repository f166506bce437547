import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from roadalign.synth import make_pair, preset_mini  # noqa: E402


@pytest.fixture(scope="session")
def mini_data(tmp_path_factory):
    """The `mini` preset rendered once: 18 reference and 14 observed frames."""
    root = tmp_path_factory.mktemp("mini")
    make_pair(*preset_mini(), root)
    return root
