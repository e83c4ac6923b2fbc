"""Exception types shared across the package, and the range check for settings."""

import math
import numbers


class DxAuditError(Exception):
    """Base class for all dxaudit errors."""


class BadSetting(DxAuditError, ValueError):
    """A setting is outside the range its consumer can work with."""


def require_at_least(values, **minimums: float) -> None:
    """Raise BadSetting for the first named entry of ``values`` (a dict)
    that is below its minimum, not finite, a bool, or not a number of its
    minimum's kind: an int minimum requires an integer."""
    for name, minimum in minimums.items():
        value = values[name]
        kind = numbers.Integral if isinstance(minimum, int) else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind) \
                or not minimum <= value < math.inf:  # also false for NaN
            raise BadSetting(f"{name} must be finite and >= {minimum}, got {value!r}")


class EmptyName(DxAuditError):
    """A disease name normalized to the empty string."""


class ParseError(DxAuditError):
    """A corpus or table line could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateRecordId(DxAuditError):
    """Two corpus records share a record_id."""


class BadCode(DxAuditError):
    """An ICD code does not match the 3/4/6-digit grammar."""


class DuplicateCode(DxAuditError):
    """An ICD table contains the same code twice."""


class EmptyLexicon(DxAuditError):
    """A matcher was requested for a lexicon with no entries."""


class WindowOverflow(DxAuditError):
    """A single disease surface is longer than the context budget."""


class BadPattern(DxAuditError):
    """An enumerator pattern failed to compile."""


class EmptyContext(DxAuditError):
    """Feature assembly was asked to mark an empty context."""


class ShapeMismatch(DxAuditError):
    """Model and sample dimensions disagree."""


class EmptyPool(DxAuditError):
    """The replacement disease pool is empty after exclusions."""


class DegenerateData(DxAuditError):
    """A training set is missing at least one class, or training diverged."""


class UnknownCode(DxAuditError):
    """A coded record references an ICD code absent from the table."""


class InsufficientCodes(DxAuditError):
    """The ICD table is too small to sample the requested pairs."""


class DegenerateBatch(DxAuditError):
    """A contrastive batch cannot be formed with >= 2 positive pairs."""


class BadModelFile(DxAuditError):
    """A model file is truncated, corrupt, or holds another kind of model."""


class SpanMismatch(DxAuditError):
    """A mention's span does not cover its disease in the record text."""


class ModelNotLoaded(DxAuditError):
    """The pipeline was run without a trained model."""


class MissingGroupRow(DxAuditError):
    """No (adrg, tier) row exists in the group table."""


class BadTemplate(DxAuditError):
    """A synthetic-corpus template is malformed."""
