import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_force_allocation, ser_power_gradient, stationarity_residual
from marcsim.model import Scheme
from marcsim.power import (
    MultimodalObjectiveWarning,
    PowerSplit,
    closed_form_source_power,
    numeric_allocation,
    ser_for_powers,
)


# -- PowerSplit ------------------------------------------------------------------


def test_split_constraint_by_construction():
    s = PowerSplit.from_source(1.2, 4.0)
    assert 2 * s.p_source + s.p_relay == pytest.approx(4.0, rel=1e-12)


def test_split_rejects_violation():
    with pytest.raises(ValueError, match="violates"):
        PowerSplit(1.0, 1.0, 4.0)


def test_split_rejects_nonpositive_components():
    with pytest.raises(ValueError):
        PowerSplit.from_source(2.0, 4.0)  # relay power would be 0
    # inf - inf leaves a NaN constraint residual, which no tolerance check catches
    with pytest.raises(ValueError, match="p_source"):
        PowerSplit(math.inf, 1.0, math.inf)


def test_equal_split():
    s = PowerSplit.equal(9.0)
    assert s.p_source == pytest.approx(3.0)
    assert s.p_relay == pytest.approx(3.0)


@given(frac=st.floats(1e-6, 0.5, exclude_max=True), pt=st.floats(1e-3, 1e4))
def test_split_constraint_holds(frac, pt):
    s = PowerSplit.from_source(frac * pt, pt)
    assert abs(2 * s.p_source + s.p_relay - pt) <= 1e-9 * pt


# -- the cube-root formula ----------------------------------------------------------


def test_closed_form_raw_value():
    assert closed_form_source_power(3.0, 1.0) == pytest.approx(15.142760515360377, rel=1e-12)


def test_closed_form_finite_over_b_sweep():
    for b in (1.0, 10.0, 100.0):
        assert math.isfinite(closed_form_source_power(3.0, b))


def test_closed_form_rejects_bad_inputs():
    with pytest.raises(ValueError):
        closed_form_source_power(-1.0, 1.0)
    with pytest.raises(ValueError, match="p_total"):
        closed_form_source_power(math.inf, 1.0)
    with pytest.raises(ValueError, match="p_total"):
        numeric_allocation(math.inf, anc_objective(1))


# -- numeric allocation ---------------------------------------------------------------


def anc_objective(num_relays):
    return functools.partial(ser_for_powers, num_relays=num_relays, mod_order=2, scheme=Scheme.ANC)


def test_optimum_beats_equal_split():
    pt = 10.0
    obj = anc_objective(2)
    opt = numeric_allocation(pt, obj)
    eq = PowerSplit.equal(pt)
    assert obj(opt.p_source, opt.p_relay) <= obj(eq.p_source, eq.p_relay)


def test_optimum_matches_brute_force_grid():
    pt = 10.0
    opt = numeric_allocation(pt, anc_objective(2))
    ref, cell = brute_force_allocation(pt, num_relays=2, grid_points=10_000)
    assert abs(opt.p_source - ref) <= cell


def test_allocation_deterministic():
    pt = 4.0
    obj = anc_objective(1)
    assert numeric_allocation(pt, obj) == numeric_allocation(pt, obj)


def test_optimized_ser_nonincreasing_in_budget():
    vals = []
    for pt in (3.0, 10.0, 30.0):
        obj = anc_objective(2)
        opt = numeric_allocation(pt, obj)
        vals.append(obj(opt.p_source, opt.p_relay))
    assert vals[0] > vals[1] > vals[2]


def test_multimodal_objective_flagged():
    pt = 2.0

    def two_wells(ps, pr):
        return min((ps - 0.2) ** 2, (ps - 0.8) ** 2)

    with pytest.warns(MultimodalObjectiveWarning):
        opt = numeric_allocation(pt, two_wells)
    assert min(abs(opt.p_source - 0.2), abs(opt.p_source - 0.8)) < 1e-6


# -- first-order optimality -------------------------------------------------------------


def test_residual_vanishes_at_optimum():
    pt = 10.0
    f = anc_objective(2)
    opt = numeric_allocation(pt, f)
    res = stationarity_residual(opt, f)
    g_s, g_r = ser_power_gradient(opt, f)
    assert res < 1e-4 * max(abs(g_s), abs(g_r))


def test_residual_larger_at_skewed_split():
    pt = 10.0
    f = anc_objective(2)
    opt = numeric_allocation(pt, f)
    skew = PowerSplit.from_source(0.45 * pt, pt)
    assert stationarity_residual(skew, f) > stationarity_residual(opt, f)


def test_gradients_match_higher_order_differences():
    f = anc_objective(2)
    split = PowerSplit.from_source(2.5, 10.0)
    h = 1e-5 * split.p_total
    ps, pr = split.p_source, split.p_relay
    g_s, g_r = ser_power_gradient(split, f)
    five_s = (-f(ps + 2 * h, pr) + 8 * f(ps + h, pr) - 8 * f(ps - h, pr) + f(ps - 2 * h, pr)) / (
        12 * h
    )
    five_r = (-f(ps, pr + 2 * h) + 8 * f(ps, pr + h) - 8 * f(ps, pr - h) + f(ps, pr - 2 * h)) / (
        12 * h
    )
    assert g_s == pytest.approx(five_s, rel=0.01)
    assert g_r == pytest.approx(five_r, rel=0.01)
