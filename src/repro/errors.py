"""Exception hierarchy shared by every repro subpackage."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class FormatError(ReproError):
    """A sparse-format container was constructed or used incorrectly."""


class ShapeError(ReproError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(ReproError):
    """An architecture or simulator configuration is invalid."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class GraphError(ReproError):
    """A model graph is structurally invalid (cycle, dangling tensor,
    duplicate producer) or was scheduled inconsistently."""


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its budget."""


class CaseTimeoutError(ReproError):
    """A sweep case overran its deadline and the supervisor killed its worker."""


class DataCorruptionError(ReproError):
    """Stored or in-flight data failed an integrity check."""


class CheckpointError(ReproError):
    """A checkpoint journal is unreadable or inconsistent with its sweep."""


class WorkerCrashError(ReproError):
    """A supervised worker process died without completing its shard."""


class TelemetryError(ReproError):
    """A streamed telemetry file is corrupt past its final line.

    Mirrors the checkpoint-journal contract: a torn final line is a
    normal crash artifact and is tolerated, interior garble means the
    stream cannot be trusted.
    """
