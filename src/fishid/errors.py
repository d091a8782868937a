"""Exception types shared across the toolkit.

Every error raised by the library derives from :class:`ToolkitError` so that
callers can catch one base class. The pipeline annotates errors it catches
with the name of the stage that raised them (``stage`` attribute), which keeps
failures attributable without changing the exception type.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    def __init__(self, message="", stage=None):
        super().__init__(message)
        self.stage = stage

    def __str__(self):
        base = super().__str__()
        if self.stage:
            return f"[{self.stage}] {base}"
        return base


class InvalidConfig(ToolkitError, ValueError):
    """A config object was given an out-of-range or unknown value."""


# image decoding / manifests
class UnsupportedFormat(ToolkitError):
    """Input bytes are not a format this toolkit reads."""


class TruncatedData(ToolkitError):
    """Pixel payload is shorter than the header promises."""


class MalformedRow(ToolkitError):
    """A manifest row has the wrong shape or an invalid field."""


class InconsistentHierarchy(ToolkitError):
    """One family maps to more than one (poison, cluster) pair."""


class EmptyManifest(ToolkitError):
    """Manifest contains a header but no data rows."""


# preprocessing / segmentation
class ImageTooSmall(ToolkitError):
    """Image is below the minimum size an operation supports."""


class EmptyForeground(ToolkitError):
    """No pixel qualifies as foreground."""


# feature extraction
class InconsistentInputs(ToolkitError):
    """Feature extraction inputs disagree on dimensions."""


# neural network
class BadArchitecture(ToolkitError):
    """Layer sizes do not describe a valid network."""


class DimensionMismatch(ToolkitError):
    """Vector or matrix shapes do not line up."""


class EmptyTrainingSet(ToolkitError):
    """No training rows were provided."""


class NonFiniteError(ToolkitError):
    """Training produced a non-finite error value (divergence guard)."""


# decision tree / labels
class EmptySet(ToolkitError):
    """Impurity of an empty label set is undefined."""


class RaggedRows(ToolkitError):
    """Training rows have differing vector lengths."""


class UnknownClass(ToolkitError):
    """Class index has no entry in the label registry."""


# pipeline / persistence
class EmptyTestSet(ToolkitError):
    """No test rows were provided."""


class ClassMissing(ToolkitError):
    """A registry class has zero training rows."""


class IoFailure(ToolkitError):
    """Reading or writing a file failed."""


class VersionMismatch(ToolkitError):
    """Model file version is not supported."""


class CorruptModel(ToolkitError):
    """Model file failed structural or invariant checks."""


# synthetic generator
class CanvasTooSmall(ToolkitError):
    """Requested fish does not fit on the canvas with the border margin."""
