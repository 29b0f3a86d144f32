"""Run-level error types with their CLI exit codes."""


class ConfigError(RuntimeError):
    exit_code = 2


class BoundsError(RuntimeError):
    """Density guard rail or finiteness violation, or a step that the
    pressure law refuses, during a run.  A failed family carries the report
    over its finished members as ``partial_report``."""

    exit_code = 4
    partial_report = None


class FixedPointError(RuntimeError):
    """Picard iteration failed to contract even on a one-step slab."""

    exit_code = 5
