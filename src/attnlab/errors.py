"""Exception types shared across the package."""


class AttnLabError(Exception):
    """Base class for all package errors."""


class InvalidDims(AttnLabError):
    """Dimension constraints violated (e.g. orthonormal table with K > d)."""


class RankDeficient(AttnLabError):
    """An embedding draw failed the rank check after resampling."""


class ArgmaxUnreachable(AttnLabError):
    """Could not sample a head satisfying the argmax margin."""


class SchemaViolation(AttnLabError):
    """A loaded file violates the dataset JSON schema; message names the field path."""


class GraphMismatch(AttnLabError):
    """A sample's last token has no corresponding token-priority graph."""


class NotOrthonormal(AttnLabError):
    """Operation requires orthonormal token embeddings."""


class DomainError(AttnLabError):
    """Loss argument left the valid domain (log of a non-positive score)."""


class NonFiniteLoss(AttnLabError):
    """Training produced a non-finite loss; carries the trace so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class NoConvergence(AttnLabError):
    """A reference could not be certified: the graph-SVM solve did not end
    SOLVED, or W_fin is not CERTIFIED."""


class ZeroMatrix(AttnLabError):
    """The margin xi is undefined for an all-zero W_svm."""
