"""Command-line front end.

Subcommands: synth (paired synthetic rides), align (on-line fixed-lag
detection), groundtruth (off-line full-sequence transfer), eval (mask
scoring). Exit codes: 0 success, 1 usage, 2 bad data or config,
3 processing failure.
"""

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .config import PipelineConfig, read_key_values
from .errors import (ConfigError, DataError, ImageFormatError, RoadAlignError,
                     UsageError)
from .evaluate import MEASURES, format_aggregate
from .pipeline import run_align, run_eval, run_groundtruth
from .synth import PRESETS, make_pair

logger = logging.getLogger(__name__)

# frame counts are deliberately not overridable: preset rides carry
# per-frame speed and jitter schedules sized to their scene
_SCENE_KEYS = {
    "seed": int,
    "theta": float,
    "focal_px": float,
    "image_width": int,
    "image_height": int,
    "road_width": float,
}
_OBS_RIDE_KEYS = {
    "model_violation": float,
    "noise_sigma": float,
    "gain": float,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_synth_spec(spec):
    """Resolve a preset name, or a key=value file refining a preset."""
    if spec in PRESETS:
        return PRESETS[spec]()
    path = Path(spec)
    if not path.is_file():
        raise DataError(f"unknown preset or missing spec file: {spec}")
    raw = read_key_values(path)
    name = raw.get("preset", "street")
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    scene, ride_ref, ride_obs = PRESETS[name]()
    try:
        scene_kw = {k: cast(raw[k]) for k, cast in _SCENE_KEYS.items()
                    if k in raw}
        ride_kw = {k: cast(raw[k]) for k, cast in _OBS_RIDE_KEYS.items()
                   if k in raw}
    except ValueError as exc:
        raise ConfigError(f"bad value in {spec}: {exc}") from exc
    if scene_kw:
        scene = dataclasses.replace(scene, **scene_kw)
    if ride_kw:
        ride_obs = dataclasses.replace(ride_obs, **ride_kw)
    return scene, ride_ref, ride_obs


def cmd_synth(args):
    scene, ride_ref, ride_obs = _load_synth_spec(args.spec)
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
    p.add_argument("spec", help=f"preset name {sorted(PRESETS)} or spec file")
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
