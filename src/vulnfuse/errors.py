"""Exception types raised across the pipeline."""


class VulnfuseError(Exception):
    """Base class for all package errors."""


class EmptyContract(VulnfuseError):
    """Contract source is empty after preprocessing."""


class ParseError(VulnfuseError):
    """A dataset record could not be parsed."""

    def __init__(self, message, record_index=None):
        super().__init__(message)
        self.record_index = record_index


class SchemaError(VulnfuseError):
    """A record violates the dataset schema (e.g. label length mismatch)."""


class EmptyCorpus(VulnfuseError):
    """An index build was attempted on an empty dataset."""


class InvalidParameter(VulnfuseError):
    """A parameter is outside its valid range."""


class EmptyFragment(VulnfuseError):
    """A text fragment has no embeddable content."""


class NoFragments(VulnfuseError):
    """Segmentation of a query produced no usable fragments."""


class EmptyStore(VulnfuseError):
    """A vector store build produced zero fragments."""


class ShapeError(VulnfuseError):
    """Operand shapes or lengths do not conform."""


class EmptyDataset(VulnfuseError):
    """Training was attempted on an empty dataset."""


class NumericError(VulnfuseError):
    """A numeric routine encountered a non-finite value."""


class AllDetectorsFailed(VulnfuseError):
    """Every configured detector failed on a contract."""


class StageError(VulnfuseError):
    """A pipeline stage is missing a prerequisite artifact."""


class ConfigError(VulnfuseError):
    """The pipeline configuration file is invalid."""

    def __init__(self, message, keys=()):
        super().__init__(message)
        self.keys = tuple(keys)
