"""Exception types shared across the lab; `where` names an error's structure, formula and step."""

from contextlib import contextmanager

_FACTS = {"structure": "{}", "formula": "formula {!r}", "step": "step {}"}  # in message order


class LabError(Exception):
    """Base class for all errors raised by this package; `where`'s facts prefix its message."""

    def __str__(self):
        named = [shape.format(vars(self)[fact]) for fact, shape in _FACTS.items() if fact in vars(self)]
        return ", ".join(named) + ": " + super().__str__() if named else super().__str__()

    def __reduce__(self):
        # rebuilt from the formatted message and the attributes, not by
        # calling __init__ again, so an error raised in a worker process
        # reaches the parent with its type, message and extra attributes
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    error = cls.__new__(cls, *args)
    error.__dict__.update(state)
    return error


@contextmanager
def where(**facts):
    """Name the block's structure, formula or step on a LabError leaving it; the innermost fact wins."""
    try:
        yield
    except LabError as error:
        error.__dict__ = facts | error.__dict__  # a fact the error carries wins
        raise


class FormulaSyntaxError(LabError):
    """Raised by the parser; carries the offset of the offending token."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SignatureMismatchError(LabError):
    """Unknown symbol, arity mismatch, or duplicate symbol name."""


class FreeVariableError(LabError):
    """Declared object/parameter variables do not match the formula's free variables."""


class EvaluationError(LabError):
    """Missing variable binding or malformed assignment during evaluation."""


class EmptyFamilyError(LabError):
    """A family spec whose size filter produces no structures, or a family
    with fewer structures than profiling needs (two)."""


class NotOneDimensionalError(LabError):
    """Counting envelope cannot be satisfied at the configured ceiling.

    Carries the worst offending observations for diagnosis.
    """

    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


class ClassificationGapError(LabError):
    """A solution count fell strictly between the algebraic bound and the
    measure envelope; surfaces a defect in the profile."""


class EnumerationBudgetError(LabError):
    """Full enumeration of a parameter space would exceed the one evaluation
    budget, folang.BUDGET. A translation kernel's Ψ is never enumerated, so
    it never raises this."""


class ConfigRejectedError(LabError):
    """Greedy configuration violates a precondition (measure floor too high,
    or an avoid formula is not uniformly algebraic on the family)."""


class ThresholdNotMetError(LabError):
    """Strict build requested on a structure below the size threshold."""


class StructureTooSmallError(LabError):
    """The greedy ran out of eligible elements, the universe is degenerate, or
    it has fewer elements than an extension base of base_max needs."""


class ExperimentConfigError(LabError):
    """Invalid or incomplete experiment configuration file, or a report path
    that cannot be written or removed."""


class InvariantError(LabError):
    """A guarantee checked at runtime failed: a union bound, the strict-mode
    shrink or size budget, or an internal consistency condition. A plain
    exception rather than an assert, so it still fires under `python -O`."""
