"""Exception types shared across the package, and the one seed check."""

import numbers


class FrameRecError(Exception):
    """Base class for all framerec-specific errors."""


class ParseError(FrameRecError):
    """A data file line could not be parsed."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class IntegrityError(FrameRecError):
    """Cross-references between users, items, frames or files are broken."""


class EmptyDatasetError(FrameRecError):
    """An operation produced or received a dataset with no usable records."""


class MissingFramesError(FrameRecError):
    """An item has no frames but a visual operation requires them."""


class UnsupportedTaskError(FrameRecError):
    """The requested prediction task is unavailable under the current config."""


class SamplingError(FrameRecError):
    """Negative sampling is impossible for some user."""


class ConfigError(FrameRecError):
    """Invalid or inconsistent configuration."""


class NonFiniteError(FrameRecError):
    """A computation produced NaN or infinite values where finite ones are needed."""


def check_seed(seed) -> None:
    """ConfigError unless ``seed`` is a non-negative integer, as numpy's generators need."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
