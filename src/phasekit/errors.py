"""Run-level error types with their CLI exit codes."""


class ConfigError(RuntimeError):
    exit_code = 2


class BoundsError(RuntimeError):
    """Density guard rail or finiteness violation, or a step that the
    pressure law refuses, during a run."""

    exit_code = 4


class FixedPointError(RuntimeError):
    """Picard iteration failed to contract even on a one-step slab."""

    exit_code = 5
