"""Command-line front end.

Subcommands: synth (paired synthetic rides), align (on-line fixed-lag
detection), groundtruth (off-line full-sequence transfer), eval (mask
scoring). Exit codes: 0 success, 1 usage, 2 bad data or config,
3 processing failure.
"""

import argparse
import logging
import sys

from .config import PipelineConfig
from .errors import (ConfigError, DataError, ImageFormatError, RoadAlignError,
                     UsageError)
from .evaluate import MEASURES, format_aggregate
from .pipeline import run_align, run_eval, run_groundtruth

logger = logging.getLogger(__name__)

# the names of synth.PRESETS, for the help text: importing synth is
# left to the synth command
PRESET_NAMES = ("mini", "street")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def cmd_synth(args):
    from .synth import load_spec, make_pair
    scene, ride_ref, ride_obs = load_spec(args.spec)
    truth = make_pair(scene, ride_ref, ride_obs, args.out)
    print(f"wrote {len(truth.ref_arc)} reference + {len(truth.obs_arc)} "
          f"observed frames under {args.out}")
    return 0


def _overrides(args):
    return {
        "lag": args.lag,
        "window": args.window,
        "theta": args.theta,
        "focal_px": args.focal,
        "band": args.band,
    }


def cmd_align(args):
    cfg = PipelineConfig.load(args.config, _overrides(args))
    rows = run_align(args.ref, args.obs, args.out, cfg,
                     refine=not args.no_refine)
    print(f"emitted {len(rows)} mask(s) under {args.out}")
    return 0


def cmd_groundtruth(args):
    cfg = PipelineConfig.load(args.config, _overrides(args))
    rows = run_groundtruth(args.ref, args.obs, args.out, cfg,
                           refine=not args.no_refine)
    print(f"transferred {len(rows)} mask(s) under {args.out}")
    return 0


def cmd_eval(args):
    out_dir = args.out if args.out is not None else args.result
    _, agg = run_eval(args.result, args.truth, out_dir)
    pretty = format_aggregate(agg)
    for name in MEASURES:
        print(f"{name}: {pretty[name]}")
    return 0


def _add_pipeline_flags(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--lag", help="emission delay in frames (default 5)")
    sub.add_argument("--window", help="smoothing window length (default 10)")
    sub.add_argument("--theta", help="invariant direction in radians")
    sub.add_argument("--focal", help="focal length in pixels")
    sub.add_argument("--band",
                     help="candidate label band half-width, or 'none' "
                          "(align only)")
    sub.add_argument("--no-refine", action="store_true",
                     help="emit raw transferred masks without background "
                          "subtraction")


def _build_parser():
    parser = _Parser(prog="roadalign",
                     description="road detection by video alignment")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="chatty logging")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", parents=[], help="render a paired dataset")
    p.add_argument("spec",
                   help=f"preset ({', '.join(PRESET_NAMES)}) or spec file")
    p.add_argument("out", help="output directory")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("align", help="on-line detection with a fixed lag")
    p.add_argument("ref", help="reference ride directory (frames + masks)")
    p.add_argument("obs", help="observed ride directory (frames)")
    p.add_argument("out", help="output directory for masks and sync.csv")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_align)

    p = subs.add_parser("groundtruth",
                        help="off-line whole-sequence annotation transfer")
    p.add_argument("ref", help="reference ride directory (frames + masks)")
    p.add_argument("obs", help="observed ride directory (frames)")
    p.add_argument("out", help="output directory for masks and sync.csv")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_groundtruth)

    p = subs.add_parser("eval", help="score result masks against truth")
    p.add_argument("result", help="directory of produced masks")
    p.add_argument("truth", help="directory of ground-truth masks")
    p.add_argument("--out", help="directory for metrics.csv "
                                 "(default: the result directory)")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, DataError, ImageFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RoadAlignError, ValueError) as exc:
        print(f"processing failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
