"""Counting width partitions.

``P(W, B)`` — the number of ways to write ``W`` as an unordered sum of
``B`` positive integers — determines the search-space size of
``Partition_evaluate``.  The paper (Section 3.1) notes no simple exact
formula exists for general ``B`` and quotes approximations from van
Lint & Wilson [10]:

* general ``B`` (valid for W >> B):  W^(B-1) / (B! * (B-1)!);
* B = 2 (exact):                     floor(W / 2);
* B = 3 (exact):                     round(W^2 / 12).

We additionally provide the *exact* count for any (W, B) via the
classical recurrence  p(n, k) = p(n-1, k-1) + p(n-k, k), which the
efficiency study (Table 1) uses as its denominator — unlike the paper,
which had to rely on the asymptotic formula.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from repro.exceptions import ConfigurationError


def _check(total: int, parts: int) -> None:
    if total < 1:
        raise ConfigurationError(f"total width must be >= 1, got {total}")
    if parts < 1:
        raise ConfigurationError(f"number of parts must be >= 1, got {parts}")


@lru_cache(maxsize=None)
def _p(n: int, k: int) -> int:
    """p(n, k): partitions of n into exactly k positive parts."""
    if k == 0:
        return 1 if n == 0 else 0
    if n < k:
        return 0
    if k == n or k == 1:
        return 1
    return _p(n - 1, k - 1) + _p(n - k, k)


def count_partitions(total: int, parts: int) -> int:
    """Exact number of partitions of ``total`` into ``parts`` parts.

    >>> count_partitions(8, 4)   # 1+1+1+5, 1+1+2+4, 1+1+3+3, 1+2+2+3, 2+2+2+2
    5
    """
    _check(total, parts)
    return _p(total, parts)


def count_partitions_min(total: int, parts: int, minimum: int) -> int:
    """Partitions of ``total`` into ``parts`` parts, each >= ``minimum``.

    Subtracting ``minimum - 1`` from every part gives an ordinary
    partition, so this is ``p(total - parts*(minimum-1), parts)`` — the
    subtree-size formula the sharded enumerator uses to skip straight
    to a rank (:func:`repro.partition.enumerate.partitions_slice`).
    Zero when no such partition exists.

    >>> count_partitions_min(8, 4, 2)   # only 2+2+2+2
    1
    """
    if minimum < 1:
        raise ConfigurationError(
            f"minimum part must be >= 1, got {minimum}"
        )
    reduced = total - parts * (minimum - 1)
    if reduced < parts:
        return 0
    return _p(reduced, parts)


def count_partitions_up_to(total: int, max_parts: int) -> int:
    """Partitions of ``total`` into at most ``max_parts`` parts.

    The size of the full P_NPAW search space for ``B_max = max_parts``.
    """
    _check(total, max_parts)
    return sum(_p(total, parts) for parts in range(1, max_parts + 1))


def approx_partitions(total: int, parts: int) -> float:
    """The paper's asymptotic estimate  W^(B-1) / (B! (B-1)!).

    Accurate only for ``total`` much larger than ``parts`` (the paper
    restricts its Table 1 to W >= 44 for this reason).
    """
    _check(total, parts)
    return total ** (parts - 1) / (factorial(parts) * factorial(parts - 1))


def partitions_two(total: int) -> int:
    """Exact count for B = 2: floor(W / 2)."""
    _check(total, 2)
    return total // 2


def partitions_three(total: int) -> int:
    """Exact count for B = 3: round(W^2 / 12) (nearest integer)."""
    _check(total, 3)
    value = total * total / 12.0
    return int(value + 0.5)
