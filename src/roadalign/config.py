"""Pipeline configuration: key=value files plus command-line overrides."""

import types
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .descriptor import DescriptorParams
from .errors import ConfigError
from .invariant import InvariantDirection
from .spatial import CameraIntrinsics, LKSettings
from .temporal import SyncConfig
from .transfer import RefineSettings

_FEATURE_SPACES = ("invariant", "gray")


def read_key_values(path):
    """Parse a key=value file; # starts a comment, blank lines are skipped.

    Unknown keys are kept, so a generated scene.cfg can double as the
    alignment config.
    """
    out = {}
    text = Path(path).read_text()
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
    beta: float = 1.0
    band: int | None = 30
    smooth_sigma: float = 2.0
    downsample_factor: int = 16
    gradient_floor_ratio: float = 0.05
    max_shift: int = 2
    mu_y: float = 1.0
    sigma_y: float = 0.5
    pyramid_levels: int = 3
    max_iterations: int = 50
    robust_skip: int = 2
    min_blob_px: int = 25
    histogram_bins: int = 256
    feature_space: str = "invariant"
    diff_space: str = "invariant"

    def __post_init__(self):
        if self.feature_space not in _FEATURE_SPACES:
            raise ConfigError(f"feature_space must be one of {_FEATURE_SPACES}")
        if self.diff_space not in _FEATURE_SPACES:
            raise ConfigError(f"diff_space must be one of {_FEATURE_SPACES}")
        if not self.focal_px > 0:
            raise ConfigError("focal_px must be positive")
        if self.lag < 0:
            raise ConfigError("lag must be non-negative")
        if self.window < max(self.lag, 1):
            raise ConfigError("window must be at least max(lag, 1)")
        if self.band is not None and self.band < 1:
            raise ConfigError("band must be at least 1 frame")
        if not self.beta > 0:
            raise ConfigError("beta must be positive")
        # the stage settings check their own values; build them once here
        # so that a bad value fails before any frame is read
        try:
            InvariantDirection(self.theta)
            self.descriptor_params()
            self.lk_settings()
            self.refine_settings()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def load(cls, config_path=None, overrides=None):
        """Build a config from an optional file plus override mapping.

        Overrides use the same keys as the file and win over it. Keys
        are the field names; an empty value means the field's default,
        and fields without a default (theta, focal_px) must come from
        one of the two sources. Fields that may be None also accept
        `none` or `off`.
        """
        raw = read_key_values(config_path) if config_path else {}
        if overrides:
            raw.update({k: v for k, v in overrides.items() if v is not None})
        values = {}
        for f in fields(cls):
            text = str(raw.get(f.name, "")).strip()
            if text == "":
                if f.default is MISSING:
                    raise ConfigError(f"missing required key: {f.name}")
                continue
            values[f.name] = _cast(f, text)
        return cls(**values)

    def _settings(self, settings_cls):
        """Build settings_cls from the fields it shares with this config."""
        return settings_cls(**{f.name: getattr(self, f.name)
                               for f in fields(settings_cls)
                               if f.name in self.__dataclass_fields__})

    def descriptor_params(self):
        return self._settings(DescriptorParams)

    def sync_config(self):
        return SyncConfig(
            lag_l=self.lag,
            window_L=self.window,
            beta=self.beta,
            candidate_band=self.band,
        )

    def lk_settings(self):
        return self._settings(LKSettings)

    def refine_settings(self):
        return self._settings(RefineSettings)

    def intrinsics(self, width, height):
        cx = self.cx if self.cx is not None else (width - 1) / 2.0
        cy = self.cy if self.cy is not None else (height - 1) / 2.0
        return CameraIntrinsics(focal_px=self.focal_px, cx=cx, cy=cy)
