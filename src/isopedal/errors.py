"""Exception types shared across the package.

Grid pipelines *mask* bad points instead of raising; these exceptions
are for inputs and constructions where silently continuing would hand
the caller garbage.
"""


class IsopedalError(Exception):
    """Base class for all package errors."""


class ConfigError(IsopedalError):
    """Malformed or inconsistent configuration input."""


class DegenerateJet(IsopedalError):
    """Jet operation undefined: division by a jet with (near-)zero value,
    or square root of a jet whose value is not a positive real."""

