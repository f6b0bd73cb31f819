"""Exception types shared across the package, and the work budget."""


class PavingError(Exception):
    """Base class for all package-specific errors."""


class NotStableError(PavingError, ValueError):
    """A family of r-sets contains two members meeting in r-1 elements."""


class NoBasisError(PavingError, ValueError):
    """Every r-subset of the ground set was declared a non-basis."""


class BadCardinalityError(PavingError, ValueError):
    """A subset has the wrong number of elements for the operation."""


class MismatchedAmbientError(PavingError, ValueError):
    """Two subsets live over different ground sets."""


WORK_BUDGET = 10**6  # steps any one search may take; read as errors.WORK_BUDGET at call time


class BudgetExceededError(PavingError, RuntimeError):
    """Exact work was refused by one of the two budgets.

    The vertex budget (johnson.DEFAULT_VERTEX_BUDGET) admits a Johnson
    graph, and with it every count, draw, enumeration and census over it,
    and ex_density's scan of its orbits.  WORK_BUDGET bounds each search:
    has_minor's (contraction set, window) pairs plus its window table's
    bits and its copy set's swap tests and copies, checked before the
    search starts; count_disjoint_copies' embeddings, or
    find_disjoint_good_moats' windows, plus the disjointness tests of the
    packing search the two share.  A search the budgets admit runs to its
    exact answer; one they refuse raises this error instead of a partial
    one.
    """


class DependentContractionSetError(PavingError, ValueError):
    """The set chosen for contraction is dependent in the matroid."""


class RankDeficientError(PavingError, ValueError):
    """A restriction leaves no independent set of full rank."""


class NotAFortError(PavingError, ValueError):
    """The given subset is not a fort of the matroid."""


class UnknownTargetError(PavingError, ValueError):
    """A census target string does not match any known pattern."""


class MatroidFileError(PavingError, ValueError):
    """A matroid description file is malformed."""
