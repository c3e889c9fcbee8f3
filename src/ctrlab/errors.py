"""Exception hierarchy shared by every module.

Each error carries a machine-readable ``category`` string, so callers can
branch on the kind of failure without parsing messages. The package has no
command-line entry point, so nothing maps categories to exit codes yet.
"""


class LabError(Exception):
    category = "internal"


class ConfigError(LabError):
    category = "config"


class UsageError(LabError):
    category = "usage"


class DataError(LabError):
    category = "data"


class SchemaError(DataError):
    category = "schema"


class SplitError(DataError):
    category = "split"


class NumericError(LabError):
    category = "numeric"


class MetricError(LabError):
    category = "metric"


class MaskError(LabError):
    category = "mask"


class InvariantError(LabError):
    category = "invariant"
