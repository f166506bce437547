"""Pipeline configuration: key=value files plus command-line overrides."""

import math
import types
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .descriptor import GRADIENT_FLOOR_RATIO, MAX_SHIFT
from .errors import ConfigError
from .invariant import InvariantDirection
from .spatial import MAX_ITERATIONS, ROBUST_SKIP, CameraIntrinsics
from .temporal import MU_Y, SyncConfig
from .transfer import HISTOGRAM_BINS, MIN_BLOB_PX

_FEATURE_SPACES = ("invariant", "gray")

# keys that no longer set anything, each with its parser and the one
# value it may still take (None: the run's feature_space). A config
# that gave one another value would change its masks without a word.
_FORMER_KEYS = {
    "diff_space": (str, None),
    "gradient_floor_ratio": (float, GRADIENT_FLOOR_RATIO),
    "max_shift": (int, MAX_SHIFT),
    "mu_y": (float, MU_Y),
    "max_iterations": (int, MAX_ITERATIONS),
    "robust_skip": (int, ROBUST_SKIP),
    "min_blob_px": (int, MIN_BLOB_PX),
    "histogram_bins": (int, HISTOGRAM_BINS),
}
# keys that synth writes to scene.cfg beyond the alignment keys, so that
# the file doubles as the alignment config; they set nothing here
SCENE_KEYS = ("seed", "image_width", "image_height", "frames", "road_width",
              "camera_height", "camera_pitch", "track", "ref.frames",
              "obs.frames")


def read_key_values(path):
    """Parse a key=value file; # starts a comment, blank lines are skipped.

    Every key is kept; `PipelineConfig.load` decides which it accepts.
    """
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") \
            from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = value.strip()
    return out


def check_keys(raw, known, kind):
    """ConfigError for the first key of `raw` not in `known`, naming it
    (as a `kind`) and the nearest known key."""
    for key in raw:
        if key not in known:
            import difflib  # only a misspelt file pays for it
            near = difflib.get_close_matches(key, sorted(known), n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"unknown {kind} {key!r}{hint}")


def _cast(field, text):
    """Parse one config value as the field's type; ConfigError if it fails."""
    kind = field.type
    if isinstance(kind, types.UnionType):  # `T | None`
        if text.lower() in ("none", "off"):
            return None
        kind = next(t for t in kind.__args__ if t is not type(None))
    try:
        return int(text, 10) if kind is int else kind(text)
    except ValueError as exc:
        raise ConfigError(f"config key {field.name!r}: {exc}") from exc


@dataclass
class PipelineConfig:
    """Everything the alignment pipeline needs beyond the frame files."""

    theta: float
    focal_px: float
    cx: float | None = None
    cy: float | None = None
    lag: int = 5
    window: int = 10
    band: int | None = 30
    smooth_sigma: float = 2.0
    downsample_factor: int = 16
    pyramid_levels: int = 3
    feature_space: str = "invariant"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")
        if self.feature_space not in _FEATURE_SPACES:
            raise ConfigError(f"feature_space must be one of {_FEATURE_SPACES}")
        if not self.focal_px > 0:
            raise ConfigError("focal_px must be positive")
        if self.lag < 0:
            raise ConfigError("lag must be non-negative")
        if self.window < max(self.lag, 1):
            raise ConfigError("window must be at least max(lag, 1)")
        if self.band is not None and self.band < 1:
            raise ConfigError("band must be at least 1 frame")
        if not self.smooth_sigma > 0:
            raise ConfigError("smooth_sigma must be positive")
        if self.downsample_factor < 1 or \
                int(self.downsample_factor) != self.downsample_factor:
            raise ConfigError("downsample_factor must be a positive integer")
        if self.pyramid_levels < 1:
            raise ConfigError("pyramid_levels must be at least 1")
        # the invariant direction checks theta; build it once here so
        # that a bad value fails before any frame is read
        try:
            InvariantDirection(self.theta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def load(cls, config_path=None, overrides=None):
        """Build a config from an optional file plus override mapping.

        Overrides use the same keys as the file and win over it. Keys
        are the field names; an empty value means the field's default,
        and fields without a default (theta, focal_px) must come from
        one of the two sources. Fields that may be None also accept
        `none` or `off`. A former key (see _FORMER_KEYS) may be empty or
        give its fixed value; any other value is a ConfigError. So is a
        key that is none of these, nor `beta`, `sigma_y` or one of
        SCENE_KEYS, which are ignored.
        """
        raw = read_key_values(config_path) if config_path else {}
        if overrides:
            raw.update({k: v for k, v in overrides.items() if v is not None})
        # beta and sigma_y belonged to the former sync model and never
        # changed a label
        known = {f.name for f in fields(cls)} | {*_FORMER_KEYS, "beta",
                                                 "sigma_y", *SCENE_KEYS}
        check_keys(raw, known, "config key")
        values = {}
        for f in fields(cls):
            text = str(raw.get(f.name, "")).strip()
            if text == "":
                if f.default is MISSING:
                    raise ConfigError(f"missing required key: {f.name}")
                continue
            values[f.name] = _cast(f, text)
        cfg = cls(**values)
        for key, (parse, fixed) in _FORMER_KEYS.items():
            text = str(raw.get(key, "")).strip()
            fixed = cfg.feature_space if fixed is None else fixed
            try:
                ok = text == "" or parse(text) == fixed
            except ValueError:
                ok = False
            if not ok:
                raise ConfigError(f"config key {key!r} is no longer settable: "
                                  f"it may only be {fixed}, got {text}")
        return cfg

    def sync_config(self):
        return SyncConfig(
            lag_l=self.lag,
            window_L=self.window,
            candidate_band=self.band,
        )

    def intrinsics(self, width, height):
        cx = self.cx if self.cx is not None else (width - 1) / 2.0
        cy = self.cy if self.cy is not None else (height - 1) / 2.0
        return CameraIntrinsics(focal_px=self.focal_px, cx=cx, cy=cy)
