"""Exception types shared across the package."""


class RoadAlignError(Exception):
    """Base class for all package errors."""


class ImageFormatError(RoadAlignError):
    """A file is not a usable 8-bit NetPBM image."""


class MalformedHeaderError(ImageFormatError):
    """The NetPBM header could not be parsed."""


class TruncatedPayloadError(ImageFormatError):
    """The pixel payload is shorter than the header promises."""


class UnsupportedMaxvalError(ImageFormatError):
    """Only maxval 255 (8-bit) images are supported."""


class DataError(RoadAlignError):
    """Input data on disk is missing or inconsistent."""


class ConfigError(RoadAlignError):
    """Missing or invalid pipeline configuration."""


class UsageError(RoadAlignError):
    """Bad command line invocation."""


class AlignmentError(RoadAlignError):
    """Rotation alignment could not produce a usable estimate."""
