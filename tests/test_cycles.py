import math

import pytest

import chemostat as ch
from chemostat import (ChemostatModel, NoEquilibriumError, NoReturnError,
                       PolyFn, UnsupportedShapeError, find_cycles, integrate,
                       landmarks, monod_species, normalize, return_map)
from chemostat import cycles, rk45
from chemostat.rk45 import fixed_step
from conftest import focus_gas_model, quadratic_yield_model


def nullcline(species):
    return lambda s: (1.0 - s) / species.uptake(s)


class TestLandmarks:
    def test_quadratic_yield_values(self, fig_quadratic):
        lm = landmarks(fig_quadratic.species[0])
        assert lm.s1 == pytest.approx(0.048, abs=5e-3)
        assert lm.s2 == pytest.approx(0.143, abs=5e-3)
        assert lm.s3 == pytest.approx(0.579, abs=5e-3)
        assert lm.s4 == pytest.approx(0.855, abs=5e-3)
        assert 0.0 < lm.s1 < lm.s2 < lm.s3 < lm.s4 < 1.0
        assert lm.case == "bistable-uncertain"  # s3 < lam=0.58 < s4

    def test_level_matching(self, fig_quadratic):
        sp = fig_quadratic.species[0]
        lm = landmarks(sp)
        P = nullcline(sp)
        assert abs(P(lm.s1) - P(lm.s3)) < 1e-9
        assert abs(P(lm.s4) - P(lm.s2)) < 1e-9

    def test_rising_arc_case(self):
        m = quadratic_yield_model(D_i=0.6818181818181818)  # lam = 0.3
        lm = landmarks(m.species[0])
        assert lm.s2 < lm.lam < lm.s3
        assert lm.case == "unstable-with-cycle"

    def test_outside_landmarks_case(self):
        # lam = 0.03 sits left of s1 ~ 0.048
        m = quadratic_yield_model(D_i=2.0 * 0.03 / (0.58 + 0.03))
        lm = landmarks(m.species[0])
        assert lm.lam < lm.s1
        assert lm.case == "gas-candidate"

    def test_monotone_nullcline(self, gas_single):
        lm = landmarks(gas_single.species[0])
        assert lm.case == "gas-candidate"
        assert lm.s1 is None and lm.s4 is None

    def test_no_equilibrium(self):
        sp = monod_species(1, 1, 1)
        with pytest.raises(NoEquilibriumError):
            landmarks(sp)

    def test_unsupported_shape_reported(self):
        wavy = PolyFn((1.0, 0.0, 98.6, -339.7, 256.3, 180.8, 326.1))
        sp = monod_species(1.0, 0.1, 0.6, wavy)
        with pytest.raises(UnsupportedShapeError):
            landmarks(sp)


class TestReturnMap:
    def test_equilibrium_start_is_immediate_fixed_point(self, gas_single):
        lam = ch.break_even(gas_single.species[0].growth).lam
        x_star = nullcline(gas_single.species[0])(lam)
        assert return_map(gas_single, x_star) == (x_star, 0.0)

    def test_near_equilibrium_displacement_reveals_stability(self, fig_quadratic):
        x_star = nullcline(fig_quadratic.species[0])(0.58)
        x0 = x_star + 0.02
        r, period = return_map(fig_quadratic, x0)
        assert 0.0 < abs(r - x0) < 0.01
        assert r < x0  # locally stable: the spiral moves inward
        assert period > 1.0

    def test_monotone_approach_on_gas_model(self, gas_single):
        lam = ch.break_even(gas_single.species[0].growth).lam
        x_star = nullcline(gas_single.species[0])(lam)
        for x0 in (0.5 * x_star, 1.5 * x_star, 3.0 * x_star):
            r, _ = return_map(gas_single, x0)
            assert min(x0, x_star) < r < max(x0, x_star)

    def test_between_cycles_moves_to_outer_cycle(self, fig_quadratic):
        # starting just outside the unstable inner cycle (~7.80), iterated
        # returns drift monotonically outward and settle on the stable outer
        # cycle (~8.60); the drift is slow at first because the inner
        # multiplier barely exceeds one
        outer = 8.5954
        xs = [8.2]
        for _ in range(25):
            xs.append(return_map(fig_quadratic, xs[-1])[0])
        assert all(a < b for a, b in zip(xs, xs[1:] + [outer + 1e-3]))
        assert abs(xs[-1] - outer) < 5e-3

    def test_nodal_approach_raises_no_return(self):
        m = normalize(ChemostatModel(1, 1, (monod_species(1, 0.3, 0.5, 1.0),)))
        with pytest.raises(NoReturnError):
            return_map(m, 2.0, t_max=200.0)

    def test_bad_start(self, fig_quadratic):
        with pytest.raises(ch.DomainError):
            return_map(fig_quadratic, -1.0)


@pytest.fixture(scope="module")
def quadratic_cycles(fig_quadratic):
    return find_cycles(fig_quadratic)


class TestFindCycles:
    def test_exactly_two_nested_cycles(self, quadratic_cycles):
        assert len(quadratic_cycles.fixed_points) == 2
        inner, outer = quadratic_cycles.fixed_points
        assert inner.stability == "unstable"
        assert outer.stability == "stable"
        assert abs(inner.multiplier) > 1.0 > abs(outer.multiplier)
        # frozen regression values from this computation
        assert inner.x_section == pytest.approx(7.8044, abs=2e-3)
        assert outer.x_section == pytest.approx(8.5954, abs=2e-3)

    def test_fixed_point_residual(self, fig_quadratic, quadratic_cycles):
        for cyc in quadratic_cycles.fixed_points:
            r, _ = return_map(fig_quadratic, cyc.x_section)
            assert abs(r - cyc.x_section) < 1e-8

    def test_reintegrating_one_period_returns(self, fig_quadratic,
                                              quadratic_cycles):
        rhs = ch.vector_field(fig_quadratic)
        lam = quadratic_cycles.lam
        for cyc in quadratic_cycles.fixed_points:
            y = [lam, cyc.x_section]
            t, n = 0.0, 2000
            h = cyc.period / n
            for _ in range(n):
                y = fixed_step(rhs, t, y, h)
                t += h
            assert abs(y[0] - lam) < 1e-6
            assert abs(y[1] - cyc.x_section) < 1e-6

    def test_rtol_invariance(self, fig_quadratic):
        a = find_cycles(fig_quadratic, x_lo=4.0, x_hi=10.0, n_grid=17)
        b = find_cycles(fig_quadratic, x_lo=4.0, x_hi=10.0, n_grid=17,
                        rtol=0.5e-10)
        assert len(a.fixed_points) == len(b.fixed_points) == 2
        for ca, cb in zip(a.fixed_points, b.fixed_points):
            assert abs(ca.x_section - cb.x_section) < 1e-6
            assert ca.stability == cb.stability

    def test_rising_arc_variant_has_a_cycle(self):
        m = quadratic_yield_model(D_i=0.6818181818181818)
        x_star = nullcline(m.species[0])(0.3)
        res = find_cycles(m, x_lo=0.2 * x_star, x_hi=5.0 * x_star, n_grid=32)
        assert len(res.fixed_points) >= 1
        assert any(c.stability == "stable" for c in res.fixed_points)

    def test_gas_model_has_no_cycles(self, gas_single):
        x_star = nullcline(gas_single.species[0])(
            ch.break_even(gas_single.species[0].growth).lam)
        res = find_cycles(gas_single, x_lo=0.3 * x_star, x_hi=4.0 * x_star,
                          n_grid=24)
        assert res.fixed_points == ()

    def test_displacement_samples_recorded(self, quadratic_cycles):
        assert len(quadratic_cycles.displacement) >= 64
        xs = [x for x, _, _ in quadratic_cycles.displacement]
        assert xs == sorted(xs)


def test_cycle_search_cost(fig_quadratic, monkeypatch):
    # Work of the reference search, which bisection on fixed-step refined
    # crossings put at 227 integrations and 904,467 right-hand-side calls.
    counts = {"integrations": 0, "rhs_calls": 0, "fixed_steps": 0}
    init = rk45.DormandPrince54.__init__

    def counting_init(self, *args, **kwargs):
        counts["integrations"] += 1
        init(self, *args, **kwargs)

    def counting_vector_field(model):
        rhs = ch.vector_field(model)

        def counted(t, y):
            counts["rhs_calls"] += 1
            return rhs(t, y)
        return counted

    def counting_fixed_step(*args):
        counts["fixed_steps"] += 1
        return fixed_step(*args)

    monkeypatch.setattr(rk45.DormandPrince54, "__init__", counting_init)
    monkeypatch.setattr(cycles, "vector_field", counting_vector_field)
    monkeypatch.setattr(rk45, "fixed_step", counting_fixed_step)
    monkeypatch.setattr(cycles, "fixed_step", counting_fixed_step, raising=False)
    res = find_cycles(fig_quadratic)
    assert counts["integrations"] <= 155
    assert counts["rhs_calls"] <= 650_000
    assert counts["fixed_steps"] == 0
    inner, outer = res.fixed_points
    assert (inner.stability, outer.stability) == ("unstable", "stable")
    assert inner.x_section == pytest.approx(7.8044, abs=2e-3)
    assert outer.x_section == pytest.approx(8.5954, abs=2e-3)
