"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import functools
import math
import random

import pytest

import chemostat as ch
from chemostat import (ChemostatModel, break_even, c_crit, certify,
                       check_monod_linear_yields, expr, find_cycles,
                       gap_for_species, integrate, landmarks,
                       local_stability_e1, monod_species, normalize, p1_curve,
                       verify_decrease)
from conftest import (monod_params, quadratic_yield_model,
                      random_constant_yield_model, two_species_reference)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({title}): FAIL")
                raise
            print(f"criterion {number:2d} ({title}): PASS")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# Shared randomized three-species models (criteria 7-9)

N_RANDOM_MODELS = 20
T_END = 500.0


def closed_form_constants(model):
    """Per-rival comparison constants from the constant-yield parameter
    formulas, plus their transfer to the (1-S)-weighted family."""
    a1, b1, d1, y1 = monod_params(model.species[0])
    cs = []
    for sp in model.species[1:]:
        ai, bi, di, yi = monod_params(sp)
        cs.append((a1 - d1) * ai * y1 / ((ai - di) * a1 * yi))
    lam1 = break_even(model.species[0].growth).lam
    level = p1_curve(model, lam1)[0]
    alphas = [c / level for c in cs]
    return cs, alphas


@pytest.fixture(scope="module")
def random_runs():
    rng = random.Random(20260809)
    runs = []
    for _ in range(N_RANDOM_MODELS):
        model = random_constant_yield_model(rng, n=3)
        initial = [rng.uniform(0.2, 0.8), rng.uniform(0.1, 1.0),
                   rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5)]
        traj = integrate(model, initial, T_END)
        runs.append((model, initial, traj))
    return runs


@pytest.fixture(scope="module")
def decrease_reports(random_runs):
    reports = []
    for model, _, traj in random_runs:
        cs, alphas = closed_form_constants(model)
        reports.append((
            verify_decrease(model, traj, "hsu", cs),
            verify_decrease(model, traj, "wl", alphas),
        ))
    return reports


# ---------------------------------------------------------------------------
# Criteria

@criterion(1, "break-even values")
def test_break_even_values():
    lam1 = break_even(monod_species(1.0, 0.1, 0.6).growth).lam
    lam2 = break_even(monod_species(1.0, 0.15, 0.55).growth).lam
    assert lam1 == pytest.approx(0.15, abs=1e-9)
    assert lam2 == pytest.approx(0.55 * 0.15 / 0.45, abs=1e-9)
    assert lam2 == pytest.approx(0.18333333333333, abs=1e-9)


@criterion(2, "critical yield slope")
def test_c_crit_values():
    assert c_crit(0.0) == pytest.approx(1.0, abs=1e-9)
    assert 6.4 <= c_crit(0.1) <= 6.6
    assert c_crit(1.0) == math.inf
    assert c_crit(1.7) == math.inf


@criterion(3, "gap feasibility vs rival yield slope")
def test_gap_feasibility_narrative():
    assert gap_for_species(two_species_reference(5), 2).feasible
    assert gap_for_species(two_species_reference(30), 2).feasible
    assert not gap_for_species(two_species_reference(80), 2).feasible


@criterion(4, "closed-form route declines where the numeric route certifies")
def test_analytic_vs_numeric_routes():
    at5 = check_monod_linear_yields(two_species_reference(5))
    assert at5.applicable and at5.certified
    at30 = check_monod_linear_yields(two_species_reference(30))
    assert at30.applicable and not at30.certified  # slope 30 > critical ~6.5
    rep30 = certify(two_species_reference(30))
    assert rep30.verdict == "GAS-certified"
    assert all(g.feasible for g in rep30.gaps)


@criterion(5, "single-species landmarks and local stability")
def test_landmarks_and_stability():
    model = quadratic_yield_model()
    lm = landmarks(model.species[0])
    assert lm.s1 == pytest.approx(0.048, abs=5e-3)
    assert lm.s2 == pytest.approx(0.143, abs=5e-3)
    assert lm.s3 == pytest.approx(0.579, abs=5e-3)
    assert lm.s4 == pytest.approx(0.855, abs=5e-3)
    assert local_stability_e1(model) == "stable"


@criterion(6, "two nested limit cycles")
def test_two_limit_cycles():
    result = find_cycles(quadratic_yield_model())
    assert len(result.fixed_points) == 2
    inner, outer = result.fixed_points  # ordered innermost first
    assert inner.stability == "unstable"
    assert outer.stability == "stable"
    # frozen regression values for the section coordinates
    assert inner.x_section == pytest.approx(7.8044, abs=2e-3)
    assert outer.x_section == pytest.approx(8.5954, abs=2e-3)


@criterion(7, "energy decrease and convergence on randomized models")
def test_lyapunov_decrease_randomized(random_runs, decrease_reports):
    for (model, initial, traj), (rep_hsu, rep_wl) in zip(random_runs,
                                                         decrease_reports):
        assert rep_hsu.decrease_ok, (initial, rep_hsu)
        assert rep_wl.decrease_ok, (initial, rep_wl)
        lam1 = break_even(model.species[0].growth).lam
        target = (lam1, p1_curve(model, lam1)[0], 0.0, 0.0)
        dist = max(abs(a - b) for a, b in zip(traj.final_state, target))
        assert dist < 1e-6, (initial, traj.final_state, target)


@criterion(8, "washout of a species that cannot break even")
def test_washout_of_hopeless_species(random_runs):
    rng = random.Random(77)
    for model, initial, _ in random_runs:
        d4 = rng.uniform(0.8, 1.5)
        a4 = d4 * rng.uniform(0.3, 0.8)
        b4 = rng.uniform(0.1, 1.0)
        augmented = normalize(ChemostatModel(1.0, 1.0, model.species + (
            monod_species(a4, b4, d4, 1.0, label="hopeless"),)))
        traj = integrate(augmented, list(initial) + [0.3], T_END)
        assert traj.final_state[4] < 1e-6


@criterion(9, "closed-form derivative matches the numerical one")
def test_vdot_formula_oracle(decrease_reports):
    for rep_hsu, rep_wl in decrease_reports:
        assert rep_hsu.max_disagreement < 1e-4
        assert rep_wl.max_disagreement < 1e-4
        assert rep_hsu.agreement_ok and rep_wl.agreement_ok


@criterion(10, "dual derivatives vs central finite differences")
def test_dual_derivative_oracle():
    rng = random.Random(42)
    checked = 0
    while checked < 1000:
        text = _random_expression(rng)
        node = expr.parse(text)
        s = rng.uniform(0.01, 0.99)
        v, d = ch.ExprFn(node).eval_dual(s)
        h = 1e-5
        fd = (expr.eval_value(node, s + h) - expr.eval_value(node, s - h)) / (2 * h)
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(d)), (text, s, d, fd)
        checked += 1


def _random_expression(rng):
    a = round(rng.uniform(0.2, 5.0), 4)
    b = round(rng.uniform(0.05, 2.0), 4)
    c = round(rng.uniform(0.0, 50.0), 4)
    d = round(rng.uniform(0.1, 1.5), 4)
    k = round(rng.uniform(-2.0, 2.0), 4)
    templates = [
        f"{a}*S/({b}+S)",
        f"{a}+{b}*S+{c}*S^2",
        f"({a}*S/({b}+S))/(1+{c}*S^2)",
        f"{a}*S/({b}+S)-{d}",
        f"exp({k}*S)",
        f"ln({b}+S)",
        f"sqrt({b}+S)",
        f"(1-S)*({b}+S)*(1+{c}*S)/({b}+S^2)",
        f"{a}/(1+{c}*S^2)",
        f"exp({k}*S)*{a}*S",
        f"-{a}*S^3+{b}*S^2-{d}",
    ]
    left = rng.choice(templates)
    if rng.random() < 0.4:
        right = rng.choice(templates)
        op = rng.choice(["+", "-", "*"])
        return f"({left}){op}({right})"
    return left
