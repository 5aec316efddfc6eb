import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemostat as ch
from chemostat import (ChemostatModel, DomainError, ExprFn, NotApplicableError,
                       PolyFn, Species, c_crit, certify, check_fiedler_hsu,
                       check_h11, check_h31, check_monod_constant_yields,
                       check_monod_linear_yields, gap_for_species,
                       hsu_gap_for_species, load_model, monod_species,
                       normalize)
from conftest import (monod_params, quadratic_yield_model,
                      random_constant_yield_model, two_species_reference)


def poly(*coeffs):
    return PolyFn(tuple(float(c) for c in coeffs))


def single(growth, uptake=poly(0, 1)):
    return normalize(ChemostatModel(1, 1, (Species("s", growth, uptake),)))


def with_window_rival(winner, lo, hi):
    """Add a rival with uptake S whose growth is positive only on (lo, hi)."""
    growth = ExprFn.from_text(f"-(S-{lo!r})*(S-{hi!r})")
    return normalize(ChemostatModel(1, 1, (
        winner, Species("window", growth, poly(0, 1)))))


class TestH11:
    def test_monod_growth_holds(self, fig_two_species):
        res = check_h11(fig_two_species)
        assert res.holds and res.margin > 0.0

    def test_two_zero_growth_fails_past_second_zero(self):
        res = check_h11(single(poly(-0.14, 0.9, -1.0)))
        assert not res.holds
        assert res.worst_point > 0.7  # sign flips at the second zero

    def test_affine_growth_holds_with_minimum_at_break_even(self):
        res = check_h11(single(poly(-0.2, 1.0)))
        assert res.holds
        # (S - 0.2)^2 bottoms out next to the excluded break-even point
        assert res.worst_point == pytest.approx(0.2, abs=1e-3)

    def test_not_applicable_without_equilibrium(self):
        m = normalize(ChemostatModel(1, 1, (monod_species(1, 1, 1),)))
        with pytest.raises(NotApplicableError):
            check_h11(m)


class TestH31:
    def test_reference_holds_and_decreasing(self, fig_two_species):
        res = check_h31(fig_two_species)
        assert res.holds and res.decreasing

    def test_quadratic_yield_fails(self, fig_quadratic):
        res = check_h31(fig_quadratic)
        assert not res.holds
        assert res.decreasing is False

    def test_linear_uptake_always_holds(self):
        # p(S) = S gives level (1-S)/S, strictly falling on (0,1)
        for lam in (0.1, 0.5, 0.9):
            res = check_h31(single(poly(-lam, 1.0)))
            assert res.holds and res.decreasing


class TestGap:
    def test_reference_feasible_narrative(self):
        for c2, feasible in ((5, True), (30, True), (80, False)):
            gap = gap_for_species(two_species_reference(c2), 2)
            assert gap.feasible is feasible, f"c2={c2}"

    def test_chosen_constant_verifies_pointwise(self):
        m = two_species_reference(5)
        gap = gap_for_species(m, 2)
        a = gap.chosen_alpha
        assert gap.lower_bound < a < gap.upper_bound
        f1 = m.species[0].growth
        f2, p2 = m.species[1].growth, m.species[1].uptake
        for k in range(1, 2000):
            s = k / 2000
            assert f1(s) * p2(s) > a * f2(s) * (1.0 - s)

    def test_infeasible_is_a_result_not_an_error(self):
        gap = gap_for_species(two_species_reference(80), 2)
        assert not gap.feasible and gap.chosen_alpha is None
        assert gap.lower_bound > gap.upper_bound

    def test_rival_that_cannot_break_even_is_not_applicable(self):
        m = normalize(ChemostatModel(1, 1, (
            monod_species(1, 0.1, 0.6), monod_species(1, 1, 1))))
        with pytest.raises(NotApplicableError):
            gap_for_species(m, 2)

    def test_bad_index(self, fig_two_species):
        with pytest.raises(DomainError):
            gap_for_species(fig_two_species, 1)


class TestHsuGap:
    def test_constant_yield_closed_form_inside_interval(self):
        rng = random.Random(31)
        for _ in range(10):
            m = random_constant_yield_model(rng, n=3)
            a1, b1, d1, y1 = monod_params(m.species[0])
            for i in (2, 3):
                ai, bi, di, yi = monod_params(m.species[i - 1])
                gap = hsu_gap_for_species(m, i)
                assert gap.feasible
                c_formula = (a1 - d1) * ai * y1 / ((ai - di) * a1 * yi)
                assert gap.lower_bound < c_formula < gap.upper_bound

    def test_feasibility_transfers_to_unit_weighting(self):
        # a feasible p_1-weighted constant c yields a feasible (1-S)-weighted
        # constant c / P_1(lam_1), checked pointwise
        rng = random.Random(32)
        for _ in range(10):
            m = random_constant_yield_model(rng, n=2)
            hsu = hsu_gap_for_species(m, 2)
            assert hsu.feasible
            assert gap_for_species(m, 2).feasible
            lam1 = ch.break_even(m.species[0].growth).lam
            alpha = hsu.chosen_alpha / ch.p1_curve(m, lam1)[0]
            f1 = m.species[0].growth
            f2, p2 = m.species[1].growth, m.species[1].uptake
            for k in range(1, 1000):
                s = k / 1000
                assert f1(s) * p2(s) > alpha * f2(s) * (1.0 - s) - 1e-15


class TestCCrit:
    def test_anchor_values(self):
        assert c_crit(0.0) == pytest.approx(1.0, abs=1e-9)
        assert 6.4 <= c_crit(0.1) <= 6.6
        assert c_crit(1.0) == math.inf
        assert c_crit(2.0) == math.inf

    def test_residual_of_defining_cubic(self):
        for b in (0.05, 0.1, 0.3, 0.7):
            c = c_crit(b)
            assert abs((c * (1 - b) - 1) ** 3 - 27 * b * c * c) < 1e-6 * c ** 3

    def test_monotone_increasing(self):
        values = [c_crit(k / 51) for k in range(1, 51)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            c_crit(-0.1)


class TestAnalyticRoutes:
    def test_linear_route_narrative(self):
        r5 = check_monod_linear_yields(two_species_reference(5))
        assert r5.applicable and r5.certified
        r30 = check_monod_linear_yields(two_species_reference(30))
        assert r30.applicable and not r30.certified
        assert certify(two_species_reference(30)).verdict == "GAS-certified"
        r80 = check_monod_linear_yields(two_species_reference(80))
        assert r80.applicable and not r80.certified

    def test_winner_slope_also_checked(self):
        # slope of the winner's own yield above the critical value breaks
        # the nullcline monotonicity requirement
        m = normalize(ChemostatModel(1, 1, (
            monod_species(1, 0.1, 0.6, poly(1, 30)),
            monod_species(1, 0.15, 0.55, poly(1, 0)))))
        r = check_monod_linear_yields(m)
        assert r.applicable and not r.certified

    def test_zero_slopes_reduce_to_constant_yield_route(self):
        rng = random.Random(33)
        for _ in range(10):
            m = random_constant_yield_model(rng, n=3)
            lin = check_monod_linear_yields(m)
            const = check_monod_constant_yields(m)
            assert lin.applicable and const.applicable
            assert lin.certified == const.certified == True  # noqa: E712

    def test_constant_route_on_reference_parameters(self):
        m = normalize(ChemostatModel(1, 1, (
            monod_species(1, 0.1, 0.6, 1.0), monod_species(1, 0.15, 0.55, 1.0))))
        r = check_monod_constant_yields(m)
        assert r.applicable and r.certified

    def test_tie_not_certified(self):
        # identical break-evens: ordering must be strict
        m = normalize(ChemostatModel(1, 1, (
            monod_species(1, 0.1, 0.6, 1.0), monod_species(1, 0.1, 0.6, 1.0))))
        r = check_monod_constant_yields(m)
        assert r.applicable and not r.certified

    def test_not_applicable_for_expression_yields(self):
        m = normalize(ChemostatModel(1, 1, (
            monod_species(1, 0.1, 0.6, ch.ExprFn.from_text("1+4*S")),)))
        assert not check_monod_linear_yields(m).applicable

    def test_certified_implies_numeric_gap_feasible(self):
        # the closed-form route never outruns the pointwise criterion
        rng = random.Random(34)
        count = 0
        while count < 8:
            m = random_constant_yield_model(rng, n=2)
            a1, b1, d1, y1 = monod_params(m.species[0])
            crit = c_crit(b1)
            slope = rng.uniform(0.0, crit if math.isfinite(crit) else 5.0)
            a2, b2, d2, y2 = monod_params(m.species[1])
            try:
                m2 = normalize(ChemostatModel(1, 1, (
                    monod_species(a1, b1, d1, poly(y1, y1 * min(slope, crit))),
                    monod_species(a2, b2, d2, poly(y2, y2 * min(slope, crit))))))
            except ch.ConstructionError:
                continue
            if not check_monod_linear_yields(m2).certified:
                continue
            count += 1
            assert gap_for_species(m2, 2).feasible


class TestFiedlerHsu:
    def test_single_species_vacuous_pairs(self, gas_single):
        rep = check_fiedler_hsu(gas_single)
        assert rep.pairs == ()
        assert rep.uptake_increasing is True
        assert rep.sign_conditions[0].holds

    def test_pair_condition_can_fail_while_gap_certifies(self):
        # a fast winner violates the pairwise comparison near S=1 although
        # the comparison-constant route still certifies exclusion
        m = normalize(ChemostatModel(1, 1, (
            monod_species(5, 0.1, 1.0, 1.0), monod_species(1, 0.1, 0.6, 1.0))))
        rep = check_fiedler_hsu(m)
        failing = [p for p in rep.pairs if not p.holds]
        assert any(p.i == 1 and p.j == 2 for p in failing)
        assert certify(m).verdict == "GAS-certified"

    def test_winner_sign_condition_is_h11(self):
        path = Path(__file__).resolve().parents[1] / "models" / "two_species.json"
        rep = certify(normalize(load_model(path)))
        assert rep.fh_conditions.sign_conditions[0] == rep.h11

    def test_no_self_pairs(self, fig_two_species):
        rep = check_fiedler_hsu(fig_two_species)
        assert all(p.i != p.j for p in rep.pairs)
        assert len(rep.pairs) == 2


class TestCertify:
    def test_reference_certified_by_both_routes(self, fig_two_species):
        rep = certify(fig_two_species)
        assert rep.verdict == "GAS-certified"
        assert all(g.feasible for g in rep.gaps)
        assert any(r.certified for r in rep.analytic_routes)
        assert rep.lambda1 < min(rep.lambdas[1:])

    def test_quadratic_yield_uncertified(self, fig_quadratic):
        rep = certify(fig_quadratic)
        assert rep.verdict == "locally-stable-uncertified"
        assert rep.local_stability == "stable"
        assert not rep.h31.holds

    def test_unstable_verdict(self):
        rep = certify(quadratic_yield_model(D_i=0.6818181818181818))
        assert rep.verdict == "unstable"

    def test_washout_only(self):
        m = normalize(ChemostatModel(1, 1, (
            monod_species(1, 1, 1), monod_species(1, 2, 1.5))))
        rep = certify(m)
        assert rep.verdict == "washout-only"
        assert rep.h11 is None and rep.gaps == ()

    def test_hopeless_winner_notes_relabeling(self):
        m = normalize(ChemostatModel(1, 1, (
            monod_species(1, 1, 1), monod_species(1, 0.1, 0.6))))
        rep = certify(m)
        assert rep.verdict == "washout-only"
        assert any("relabel" in n for n in rep.notes)

    def test_rival_above_inflow_skipped_but_noted(self):
        m = normalize(ChemostatModel(1, 1, (
            monod_species(1, 0.1, 0.6), monod_species(1, 1, 1))))
        rep = certify(m)
        assert rep.verdict == "GAS-certified"
        assert rep.retained == ()
        assert any("washes out" in n for n in rep.notes)

    def test_narrow_window_rival_below_winner_not_certified(self):
        # The rival grows only on (0.1, 0.102), below the winner's break-even
        # point 0.15, so its own equilibrium attracts.
        m = with_window_rival(monod_species(1, 0.1, 0.6), 0.1, 0.102)
        rep = certify(m)
        assert rep.verdict != "GAS-certified"
        assert rep.retained == (2,)
        assert rep.lambdas[1] == pytest.approx(0.1, abs=1e-9)

    def test_two_zero_growth_noted(self):
        m = normalize(ChemostatModel(1, 1, (
            Species("w", poly(-0.1, 1.0), poly(0, 1)),
            Species("r", poly(-0.14, 0.9, -1.0), poly(0, 1)))))
        rep = certify(m)
        assert any("two-zero" in n or "between" in n for n in rep.notes)

    def test_relabeling_rivals_does_not_change_outcomes(self):
        rng = random.Random(35)
        m = random_constant_yield_model(rng, n=3)
        rep = certify(m)
        swapped = normalize(ChemostatModel(1, 1, (
            m.species[0], m.species[2], m.species[1])))
        rep2 = certify(swapped)
        assert rep.verdict == rep2.verdict
        by_label = {m.species[i - 1].label: g for i, g in
                    zip(rep.retained, rep.gaps)}
        by_label2 = {swapped.species[i - 1].label: g for i, g in
                     zip(rep2.retained, rep2.gaps)}
        assert by_label.keys() == by_label2.keys()
        for label in by_label:
            assert by_label[label].feasible == by_label2[label].feasible
            assert by_label[label].lower_bound == pytest.approx(
                by_label2[label].lower_bound, rel=1e-12, abs=1e-12)

    def test_report_serializes_to_strict_json(self, fig_two_species):
        d = certify(fig_two_species).to_dict()
        text = json.dumps(d, allow_nan=False, sort_keys=True)
        assert json.loads(text)["verdict"] == "GAS-certified"
        m = normalize(ChemostatModel(1, 1, (monod_species(1, 1, 1),)))
        d2 = certify(m).to_dict()
        assert json.loads(json.dumps(d2, allow_nan=False))["lambda1"] == "inf"


@settings(max_examples=15, deadline=None)
@given(lam1=st.floats(0.05, 0.8), a=st.floats(0.9, 1.5), b=st.floats(0.05, 0.3),
       start=st.floats(0.05, 0.95), width=st.floats(1e-3, 0.3))
def test_window_rival_below_winner_never_certified(lam1, a, b, start, width):
    # D chosen so that the winner breaks even at lam1; the rival's window
    # opens below lam1, so the rival can invade the winner's equilibrium.
    winner = monod_species(a, b, lam1 * a / (b + lam1))
    lo = start * lam1
    rep = certify(with_window_rival(winner, lo, lo + width))
    assert rep.verdict != "GAS-certified"
    assert 2 in rep.retained
