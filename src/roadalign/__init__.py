"""Road detection by aligning a camera ride against an annotated one.

The pieces, bottom up: NetPBM image handling (imagecore), the
shadow-free log-chromaticity projection (invariant), frame descriptors
and their similarity (descriptor), fixed-lag monotone synchronization
(temporal), rotation-only spatial registration (spatial), mask transfer
with dynamic-background refinement (transfer), scoring (evaluate),
synthetic paired rides with exact ground truth (synth), and the
orchestration (config, pipeline, cli).
"""

from .config import PipelineConfig
from .errors import (ConfigError, DataError, ImageFormatError, RoadAlignError,
                     UsageError)
from .pipeline import run_align, run_eval, run_groundtruth

__version__ = "0.1.0"

# what the command line and the README's library example use; every
# other name stays importable from its module
__all__ = [
    "ConfigError", "DataError", "ImageFormatError", "PipelineConfig",
    "RoadAlignError", "UsageError", "make_pair", "run_align", "run_eval",
    "run_groundtruth", "__version__",
]


def __getattr__(name):
    # synth renders test rides; importing it only when asked keeps it off
    # the import path of a run
    if name == "make_pair":
        from .synth import make_pair
        return make_pair
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
