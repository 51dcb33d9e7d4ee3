"""No clock decides an answer.

Each point runs twice: once as is, and once with the exact solver's
and the search driver's clock replaced by one that jumps an hour per
read — what a suspended or overloaded host looks like to
``time.monotonic``.  Both runs must serialize identically, so node
and evaluation budgets alone define the answer.
"""

import time

import pytest

import repro.assign.exact
import repro.search.driver
from repro.analysis.sweep import evaluate_point
from repro.report.serialize import sweep_point_to_dict


class JumpingClock:
    """A ``time`` stand-in whose ``monotonic()`` gains an hour per read."""

    def __init__(self):
        self.now = time.monotonic()
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        self.now += 3600.0
        return self.now


@pytest.mark.parametrize("soc_name, width, options", [
    pytest.param("p93791", 24, {}, id="p93791-W24-exact"),
    pytest.param(
        "p31108", 32,
        {"mode": "search", "search_strategy": "ga", "eval_budget": 1000},
        id="p31108-W32-ga-search",
    ),
])
def test_a_jumping_clock_changes_no_answer(
    request, monkeypatch, soc_name, width, options
):
    soc = request.getfixturevalue(soc_name)
    undisturbed = sweep_point_to_dict(evaluate_point(soc, width, **options))

    clock = JumpingClock()
    for module in (repro.assign.exact, repro.search.driver):
        monkeypatch.setattr(module, "_time", clock)
    skewed = sweep_point_to_dict(evaluate_point(soc, width, **options))

    assert clock.reads > 0  # the stand-in really replaced the clock
    assert skewed == undisturbed
