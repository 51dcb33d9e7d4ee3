"""Static lower bounds for problem P_AW.

:func:`paw_lower_bound` is the exact solver's global bound, and
:func:`column_lower_bound` its O(1) form that the dense sweep kernel
prunes with.  Buses are unrelated machines because a core's time
depends on its bus's width.  The per-node bounds of the
branch-and-bound live in :mod:`repro.assign.exact`.
"""

from __future__ import annotations

from math import ceil
from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.schedule.makespan import (
    saturation_lower_bound,
    unrelated_lower_bound,
)


def paw_lower_bound(times: Sequence[Sequence[int]]) -> int:
    """Best static lower bound on the P_AW makespan."""
    return unrelated_lower_bound(times)


def column_lower_bound(
    max_time: int, total_time: int, num_buses: int
) -> int:
    """:func:`paw_lower_bound` from widest-column aggregates, in O(1).

    Per-core testing times are monotone non-increasing in bus width,
    so for any width partition every core's minimum over its buses is
    its time on the *widest* bus.  Given that column's maximum
    (:func:`~repro.schedule.makespan.saturation_lower_bound`) and sum
    (the area bound's numerator), the full unrelated-machines bound
    collapses to this closed form — the O(1)-per-partition bound the
    dense sweep kernel (:mod:`repro.engine.kernel`) prunes with.
    """
    if num_buses < 1:
        raise ConfigurationError(
            f"num_buses must be >= 1, got {num_buses}"
        )
    return max(max_time, ceil(total_time / num_buses))


__all__ = [
    "column_lower_bound",
    "paw_lower_bound",
    "saturation_lower_bound",
]
