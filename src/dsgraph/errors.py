"""Exception types shared across the package."""

from __future__ import annotations


class DsgraphError(Exception):
    """Base class for all package-specific errors."""


class IncompleteColoring(DsgraphError):
    """An operation requiring a total coloring met an uncolored edge."""


class NotTwoColored(DsgraphError):
    """A cycle swap was requested on a cycle that is not properly two-colored."""


class ColorOutOfRange(DsgraphError):
    """A color fell outside {1..d}."""


class ResourceLimit(DsgraphError):
    """A construction or search exceeded a configured size cap."""


class InvalidK(DsgraphError):
    """Matching-removal count k is out of range."""


class InvalidCayleySpec(DsgraphError):
    """A Cayley construction input violates one of its structural invariants."""


class CertificationFailed(DsgraphError):
    """A constructor's measured cycle parameter fell below its claim."""


class ClaimDiscrepancyWarning(UserWarning):
    """Measured s fell below the claimed s on a constructor that tolerates it."""


class InvalidBound(DsgraphError):
    """A list-size bound is outside its legal range."""


class DegenerateTau(DsgraphError):
    """tau <= 2*beta makes the second union-bound term undefined."""


class HypothesisViolated(DsgraphError):
    """A closed-form check was invoked outside its hypothesis (s >= 11)."""


class OracleBudgetExceeded(DsgraphError):
    """Exact search ran out of its node budget before deciding."""

    def __init__(self, nodes_explored: int):
        super().__init__(f"oracle budget exceeded after {nodes_explored} nodes")
        self.nodes_explored = nodes_explored


class PermutationSearchFailed(DsgraphError):
    """Base for the two ways a color-permutation search can come up empty."""


class PermutationNotFound(PermutationSearchFailed):
    """Exhaustive search proved that no permutation passes the check."""

    def __init__(self, trials: int):
        super().__init__(f"no valid color permutation exists ({trials} tried exhaustively)")
        self.trials = trials


class PermutationBudgetExceeded(PermutationSearchFailed):
    """Random search exhausted its trial budget without proving nonexistence."""

    def __init__(self, trials: int):
        super().__init__(f"no valid color permutation within {trials} random trials")
        self.trials = trials


class SwapPlanStuck(DsgraphError):
    """Every candidate cycle for some conflict edge was eliminated.

    ``eliminated`` records the breakdown: total cycles through the edge, how
    many were allowed, and how many allowed candidates each filter removed.
    """

    def __init__(self, edge: int, eliminated: dict):
        super().__init__(f"no usable cycle for conflict edge {edge}: {eliminated}")
        self.edge = edge
        self.eliminated = eliminated


class PreconditionViolated(DsgraphError):
    """A solver was invoked on input outside its stated precondition."""


class InvalidInstance(DsgraphError):
    """An instance file violates the dsgraph-v1 schema; message names the invariant."""
