"""Gap-vs-bound certificates for the anytime search tier.

An exact sweep proves optimality by exhaustion; the metaheuristic
tier cannot, so every search result instead carries a
:class:`SearchCertificate`: the incumbent makespan, an *admissible*
lower bound over the whole explored (partition, assignment) space,
and the relative gap between them.  A gap of zero is a proof — the
incumbent meets a bound no solution in the explored range can beat.

The bound is the dense kernel's column bound
(:func:`repro.assign.lower_bounds.column_lower_bound`) pushed over a
TAM-count *range*: for a fixed bus count ``B`` at budget ``W`` the
widest part any partition can have is ``W - B + 1``, and
:meth:`~repro.engine.kernel.DenseTimeMatrix.lower_bound_for_max` is
monotone non-increasing in the widest part, so
``lower_bound_for_max(W - B + 1, B)`` bounds *every* partition of
count ``B`` from below.  The range bound is the minimum over the
explored counts, optionally raised by a caller-supplied floor (the
instance-wide :func:`repro.analysis.certificates.global_lower_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.engine.kernel import DenseTimeMatrix
from repro.exceptions import ConfigurationError, ValidationError

#: Values ``terminated_by`` may take — which clause of the anytime
#: budget contract ended the run.
TERMINATIONS = ("target_gap", "eval_budget")


@dataclass(frozen=True)
class SearchCertificate:
    """What a finished anytime search can prove about its incumbent.

    Attributes
    ----------
    testing_time:
        The incumbent SOC testing time (cycles).
    bound:
        Admissible lower bound over the explored TAM-count range (see
        :func:`range_lower_bound`).  Every solution the search could
        ever have returned is >= this, so ``gap`` is a sound quality
        guarantee, not a heuristic score.
    evals:
        Candidate partitions scored, summed over all islands.
    improvements:
        Length of the merged incumbent trajectory (strict drops).
    elapsed_seconds:
        Wall-clock spent (reporting only; never compared by tests).
    terminated_by:
        Which budget clause fired: ``"target_gap"`` or
        ``"eval_budget"``.
    """

    testing_time: int
    bound: int
    evals: int
    improvements: int
    elapsed_seconds: float
    terminated_by: str

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValidationError(
                f"certificate bound must be >= 1, got {self.bound}"
            )
        if self.testing_time < self.bound:
            raise ValidationError(
                f"incumbent {self.testing_time} beats the admissible "
                f"bound {self.bound}; the bound is wrong"
            )
        if self.terminated_by not in TERMINATIONS:
            raise ValidationError(
                f"terminated_by must be one of {TERMINATIONS}, got "
                f"{self.terminated_by!r}"
            )

    @property
    def gap(self) -> float:
        """Relative optimality gap, ``testing_time / bound - 1`` (>= 0)."""
        return self.testing_time / self.bound - 1.0

    @property
    def is_provably_optimal(self) -> bool:
        """True when the incumbent *meets* the bound (gap exactly 0)."""
        return self.testing_time == self.bound


def range_lower_bound(
    matrix: DenseTimeMatrix,
    total_width: int,
    tam_counts: Sequence[int],
    floor: int = 0,
) -> int:
    """Admissible bound over every partition of any explored count.

    ``min_B lower_bound_for_max(W - B + 1, B)`` for the feasible
    counts (``B <= W``), raised to ``floor`` when the caller holds an
    instance-wide bound (e.g. :func:`repro.analysis.certificates.
    global_lower_bound`) that is tighter.
    """
    if total_width < 1:
        raise ConfigurationError(
            f"total_width must be >= 1, got {total_width}"
        )
    feasible = [
        count for count in tam_counts if 1 <= count <= total_width
    ]
    if not feasible:
        raise ConfigurationError(
            f"no feasible TAM count in {list(tam_counts)} for "
            f"W={total_width}"
        )
    bound = min(
        matrix.lower_bound_for_max(total_width - count + 1, count)
        for count in feasible
    )
    return max(bound, floor)
