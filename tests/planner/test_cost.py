"""The cost model's arithmetic and its calibrated break-even point.

The load-bearing property is where zig-zag and sequential merges cross
over: the model must agree with measurement (and with the engines' static
``ZIGZAG_SELECTIVITY_RATIO == 6`` threshold it replaces) that a two-list
df ratio of 4 is a sequential merge and a ratio of 6 or more is a zig-zag.
"""

from __future__ import annotations

import pytest

from repro.engine.bool_engine import BoolEngine
from repro.planner.cost import (
    SEQ_UNIT,
    merge_decision,
    seek_cost,
    sequential_cost,
    zigzag_cost,
)


# ------------------------------------------------------------------ formulas
def test_sequential_cost_sums_every_list():
    assert sequential_cost([100, 400]) == pytest.approx(SEQ_UNIT * 500)
    assert sequential_cost([]) == 0.0


def test_seek_cost_has_a_one_probe_floor():
    # Probing a list shorter than the lead still costs one probe per seek.
    assert seek_cost(100, 10) == pytest.approx(seek_cost(100, 10))
    assert seek_cost(100, 10) >= 100  # floor: one probe each
    assert seek_cost(0, 1000) == 0.0


def test_seek_cost_grows_logarithmically_with_the_gap():
    narrow = seek_cost(10, 100)
    wide = seek_cost(10, 10_000)
    assert wide > narrow
    assert wide < 4 * narrow  # log growth, not linear


def test_zigzag_cost_leads_with_the_rarest_list():
    # Order of the argument list must not matter: the model sorts.
    assert zigzag_cost([1000, 10]) == pytest.approx(zigzag_cost([10, 1000]))
    assert zigzag_cost([]) == 0.0


# ----------------------------------------------------------------- decisions
def test_single_list_is_always_sequential():
    strategy, chosen, rejected = merge_decision([500])
    assert strategy == "sequential"
    assert chosen == rejected == pytest.approx(500 * SEQ_UNIT)


def test_break_even_brackets_the_static_engine_threshold():
    """df ratio 4 -> sequential; df ratio >= 6 -> zig-zag.

    Measured on the synthetic corpora, ratio-4 zig-zags lose to the
    sequential merge and ratio-6 ones win -- which is also where the
    engines' static threshold sits, so the model reproduces the static
    behaviour where the static behaviour is right.
    """
    assert merge_decision([250.0, 1000.0])[0] == "sequential"  # ratio 4
    assert merge_decision([1000.0 / 6.0, 1000.0])[0] == "zigzag"  # ratio 6
    assert merge_decision([10.0, 1000.0])[0] == "zigzag"  # ratio 100
    assert BoolEngine.ZIGZAG_SELECTIVITY_RATIO == 6


def test_extreme_skew_prefers_zigzag_by_a_wide_margin():
    strategy, chosen, rejected = merge_decision([10.0, 100_000.0])
    assert strategy == "zigzag"
    assert rejected / chosen > 10


def test_equal_lists_prefer_sequential():
    strategy, _, _ = merge_decision([1000.0, 1000.0, 1000.0])
    assert strategy == "sequential"


# ------------------------------------------------------------------- scaling
def test_corrections_scale_costs_but_cannot_flip_a_two_list_decision_alone():
    """Scaling every list by one factor scales both strategies' costs.

    This is why the break-even constant is calibrated once: a bigger corpus
    shifts cost *levels*, the constant decides the *shape*.
    """
    base = [250.0, 1000.0]
    scaled = [count * 3.0 for count in base]
    assert merge_decision(base)[0] == merge_decision(scaled)[0]
