"""Trajectory integration and Lyapunov-function verification.

The normalized system is integrated with an adaptive 5(4) Runge-Kutta pair.
Components that dip below ``-atol`` are clamped to zero and the event is
logged; analytically the coordinate planes are invariant, so the clamp
restores the invariant cone without distorting the dynamics.

Two certified energy functions are available. Both combine a substrate
integral, a logarithmic well in the winner's concentration centered on its
equilibrium value, and linear penalty terms on the rivals weighted by the
comparison constants from the certificate layer:

* ``lyapunov_wl``: substrate integrand ``f_1(s) / (1 - s)``, rival weights
  ``alpha_i`` from :func:`~chemostat.certificates.gap_for_species`;
* ``lyapunov_hsu``: substrate integrand ``f_1(s) / p_1(s)``, rival weights
  ``c_i`` from :func:`~chemostat.certificates.hsu_gap_for_species`.

Their derivatives along the flow have closed forms in which the transport
terms cancel; ``verify_decrease`` checks those formulas against a purely
numerical time derivative as well as monotone decrease along a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .equilibria import enumerate_equilibria
from .model import (ChemostatModel, DomainError, break_even, p1_curve,
                    vector_field, _require_normalized)
from .rk45 import DormandPrince54, StiffnessError, fixed_step

__all__ = [
    "Trajectory", "StepStats", "ClampEvent", "LyapunovSamples",
    "DecreaseReport", "AsymptoticReport", "integrate", "lyapunov_wl",
    "lyapunov_hsu", "lyapunov_samples", "verify_decrease",
    "asymptotic_checks", "StiffnessError",
]


@dataclass(frozen=True)
class StepStats:
    n_accepted: int
    n_rejected: int
    max_error: float  # largest scaled local-error estimate among accepted steps


@dataclass(frozen=True)
class ClampEvent:
    t: float
    index: int  # 0 = substrate, 1..N = species
    value: float  # the negative value that was clamped to zero


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]
    states: tuple[tuple[float, ...], ...]
    step_stats: StepStats
    clamp_events: tuple[ClampEvent, ...] = ()

    @property
    def final_state(self) -> tuple[float, ...]:
        return self.states[-1]

    def write_csv(self, fh) -> None:
        n = len(self.states[0]) - 1
        header = ["t", "S"] + [f"x{i}" for i in range(1, n + 1)]
        fh.write(",".join(header) + "\n")
        for t, state in zip(self.times, self.states):
            fh.write(",".join(f"{v:.17g}" for v in (t, *state)) + "\n")


def integrate(model: ChemostatModel, initial: Sequence[float], t_end: float,
              rtol: float = 1e-8, atol: float = 1e-10,
              max_step: float = math.inf) -> Trajectory:
    """Integrate from ``initial = (S, x_1..x_N)`` to ``t_end``.

    States are recorded at every accepted step. All components stay
    non-negative: values in ``(-atol, 0)`` are clamped silently, anything
    at or below ``-atol`` is clamped and logged as a :class:`ClampEvent`.
    Raises :class:`StiffnessError` on step-size collapse.
    """
    _require_normalized(model)
    if len(initial) != model.n_species + 1:
        raise DomainError(
            f"initial state needs {model.n_species + 1} components, "
            f"got {len(initial)}")
    if any(v < 0.0 for v in initial):
        raise DomainError(f"initial state must be non-negative, got {initial!r}")
    if t_end <= 0.0:
        raise DomainError(f"t_end must be positive, got {t_end!r}")

    stepper = DormandPrince54(vector_field(model), 0.0, initial,
                              rtol=rtol, atol=atol, max_step=max_step)
    times = [0.0]
    states = [tuple(stepper.y)]
    clamps: list[ClampEvent] = []
    while stepper.step(t_end):
        y = stepper.y
        for k, v in enumerate(y):
            if v < 0.0:
                if v <= -atol:
                    clamps.append(ClampEvent(t=stepper.t, index=k, value=v))
                y[k] = 0.0
        times.append(stepper.t)
        states.append(tuple(y))
    return Trajectory(times=tuple(times), states=tuple(states),
                      step_stats=StepStats(stepper.n_accepted,
                                           stepper.n_rejected,
                                           stepper.max_error),
                      clamp_events=tuple(clamps))


# ---------------------------------------------------------------------------
# Quadrature

def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson integral of ``f`` over ``[a, b]`` (signed)."""
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return sign * _simpson_rec(f, a, b, fa, fm, fb, whole, tol, 50)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return (_simpson_rec(f, a, m, fa, flm, fm, left, half, depth - 1)
            + _simpson_rec(f, m, b, fm, frm, fb, right, half, depth - 1))


# ---------------------------------------------------------------------------
# Lyapunov functions

def _winner_data(model: ChemostatModel) -> tuple[float, float]:
    lam1 = break_even(model.species[0].growth).lam
    if not lam1 < 1.0:
        raise DomainError("species 1 has no positive equilibrium; "
                          "no certified energy function exists")
    return lam1, p1_curve(model, lam1)[0]


def _check_state(model, state, n_constants) -> None:
    if len(state) != model.n_species + 1:
        raise DomainError(f"state needs {model.n_species + 1} components")
    if n_constants != model.n_species - 1:
        raise DomainError(
            f"need one constant per rival ({model.n_species - 1}), "
            f"got {n_constants}")
    S, x1 = state[0], state[1]
    if not 0.0 < S < 1.0:
        raise DomainError(f"substrate must lie in (0, 1), got {S!r}")
    if x1 <= 0.0:
        raise DomainError(f"winner concentration must be positive, got {x1!r}")


def lyapunov_wl(model: ChemostatModel, state: Sequence[float],
                alphas: Sequence[float]) -> tuple[float, float]:
    """Energy weighted by ``1 - S`` and its closed-form flow derivative.

    ``alphas`` holds one comparison constant per rival (species 2..N), e.g.
    the ``chosen_alpha`` values of a feasible gap analysis. The log well is
    scaled by ``1/x1*``, so the derivative reduces to
    ``x_1*f_1(S)*(1/P(lam) - 1/P(S)) +
    sum_i x_i*(alpha_i*f_i(S)*(1-S) - f_1(S)*p_i(S)) / (1-S)``
    with ``P`` the substrate nullcline level; it is non-positive whenever
    the certificate conditions hold.
    """
    return _energy(model, state, alphas, lambda s: 1.0 - s)


def lyapunov_hsu(model: ChemostatModel, state: Sequence[float],
                 cs: Sequence[float]) -> tuple[float, float]:
    """Energy weighted by ``p_1(S)`` and its closed-form flow derivative.

    For a single species this is the classical planar energy function
    (no rival terms). The log well has unit scale, so the derivative
    reduces to ``f_1(S)*(P(S) - P(lam)) +
    sum_i x_i*(c_i*f_i(S)*p_1(S) - f_1(S)*p_i(S)) / p_1(S)``.
    """
    return _energy(model, state, cs, model.species[0].uptake)


def _energy(model: ChemostatModel, state: Sequence[float],
            constants: Sequence[float], weight) -> tuple[float, float]:
    """Energy with substrate weight ``w`` and its closed-form flow derivative.

    ``V = int_lam^S f_1/w + (x_1 - x1s - x1s*ln(x_1/x1s))/k + sum_i a_i*x_i``
    with ``x1s = P(lam)`` has the flow derivative
    ``Vdot = f_1(S)*((1-S)/w(S) - x1s/k + x_1*(1/k - p_1(S)/w(S))) +
    sum_i x_i*(a_i*f_i(S)*w(S) - f_1(S)*p_i(S)) / w(S)``.
    The log-well divisor ``k = w(lam)/p_1(lam)`` (``x1s`` for ``w = 1-S``,
    1 for ``w = p_1``) is the one for which the factor of ``f_1(S)``
    vanishes at ``S = lam`` for every ``x_1``, as it must where ``f_1``
    changes sign.
    """
    _require_normalized(model)
    _check_state(model, state, len(constants))
    lam1, x1s = _winner_data(model)
    f1 = model.species[0].growth
    p1 = model.species[0].uptake
    S, x1 = state[0], state[1]
    k = weight(lam1) / p1(lam1)

    v = adaptive_simpson(lambda s: f1(s) / weight(s), lam1, S)
    v += (x1 - x1s - x1s * math.log(x1 / x1s)) / k
    v += sum(a * x for a, x in zip(constants, state[2:]))

    w, f1_s = weight(S), f1(S)
    vdot = f1_s * ((1.0 - S) / w - x1s / k + x1 * (1.0 / k - p1(S) / w))
    for a, sp, x in zip(constants, model.species[1:], state[2:]):
        vdot += x * (a * sp.growth(S) * w - f1_s * sp.uptake(S)) / w
    return v, vdot


@dataclass(frozen=True)
class LyapunovSamples:
    times: tuple[float, ...]
    V: tuple[float, ...]
    Vdot_closed: tuple[float, ...]
    Vdot_numeric: tuple[float, ...]


def lyapunov_samples(model: ChemostatModel, trajectory: Trajectory,
                     which: str, constants: Sequence[float],
                     max_samples: int = 200,
                     probe: float = 1e-4) -> LyapunovSamples:
    """Sample an energy function along a trajectory.

    ``Vdot_numeric`` is a centered difference of V along the flow itself:
    from each sample the state is advanced and rewound by one fixed
    fifth-order step of size ``probe``, making the estimate independent of
    the closed-form cancellations it is meant to check.
    """
    fn = {"wl": lyapunov_wl, "hsu": lyapunov_hsu}.get(which)
    if fn is None:
        raise DomainError(f"which must be 'wl' or 'hsu', got {which!r}")
    rhs = vector_field(model)
    idx = range(len(trajectory.times))
    if len(trajectory.times) > max_samples:
        stride = (len(trajectory.times) - 1) / (max_samples - 1)
        idx = sorted({round(k * stride) for k in range(max_samples)})
    times, vs, closed, numeric = [], [], [], []
    for k in idx:
        state = trajectory.states[k]
        v, vd = fn(model, state, constants)
        fwd = fixed_step(rhs, 0.0, state, probe)
        bwd = fixed_step(rhs, 0.0, state, -probe)
        vn = (fn(model, fwd, constants)[0] - fn(model, bwd, constants)[0]) / (2 * probe)
        times.append(trajectory.times[k])
        vs.append(v)
        closed.append(vd)
        numeric.append(vn)
    return LyapunovSamples(times=tuple(times), V=tuple(vs),
                           Vdot_closed=tuple(closed), Vdot_numeric=tuple(numeric))


@dataclass(frozen=True)
class DecreaseReport:
    ok: bool
    decrease_ok: bool
    agreement_ok: bool
    first_violation_time: float | None
    max_drift_rate: float  # largest (V increase)/(elapsed time) observed
    max_disagreement: float  # max |closed - numeric| / max(1, |numeric|)
    n_samples: int


def verify_decrease(model: ChemostatModel, trajectory: Trajectory, which: str,
                    constants: Sequence[float], drift_tol: float = 1e-8,
                    agree_tol: float = 1e-4,
                    max_samples: int = 200) -> DecreaseReport:
    """Check that V never increases along the trajectory and that its
    closed-form derivative matches the numerical one.

    Decrease is enforced up to a drift of ``drift_tol * (1 + |V(0)|)`` per
    unit time; derivative agreement up to ``agree_tol`` relative to
    ``max(1, |Vdot_numeric|)``, which reduces to an absolute test near the
    equilibrium where both derivatives vanish.
    """
    samples = lyapunov_samples(model, trajectory, which, constants,
                               max_samples=max_samples)
    allowed = drift_tol * (1.0 + abs(samples.V[0]))
    first_violation = None
    max_drift = 0.0
    for k in range(1, len(samples.times)):
        dt = samples.times[k] - samples.times[k - 1]
        if dt <= 0.0:
            continue
        rate = (samples.V[k] - samples.V[k - 1]) / dt
        if rate > max_drift:
            max_drift = rate
        if rate > allowed and first_violation is None:
            first_violation = samples.times[k]
    max_dis = max(abs(c - n) / max(1.0, abs(n))
                  for c, n in zip(samples.Vdot_closed, samples.Vdot_numeric))
    decrease_ok = first_violation is None
    agreement_ok = max_dis < agree_tol
    return DecreaseReport(ok=decrease_ok and agreement_ok,
                          decrease_ok=decrease_ok, agreement_ok=agreement_ok,
                          first_violation_time=first_violation,
                          max_drift_rate=max_drift, max_disagreement=max_dis,
                          n_samples=len(samples.times))


@dataclass(frozen=True)
class AsymptoticReport:
    last_time_substrate_high: float | None  # last sample with S >= 1
    washout: tuple[tuple[int, float], ...]  # (species index, final x)
    equilibrium_distances: tuple[tuple[str, int | None, float], ...]
    final_time: float
    final_state: tuple[float, ...]


def asymptotic_checks(model: ChemostatModel, trajectory: Trajectory) -> AsymptoticReport:
    """Late-time diagnostics: substrate entering (0,1), washout of species
    that cannot break even, and distance of the end state to each
    equilibrium."""
    _require_normalized(model)
    last_high = None
    for t, state in zip(trajectory.times, trajectory.states):
        if state[0] >= 1.0:
            last_high = t
    final = trajectory.final_state
    washout = tuple(
        (i, final[i])
        for i, sp in enumerate(model.species, start=1)
        if not break_even(sp.growth).lam < 1.0)
    dists = tuple(
        (eq.kind, eq.species_index,
         math.sqrt(sum((a - b) ** 2 for a, b in zip(final, eq.state))))
        for eq in enumerate_equilibria(model))
    return AsymptoticReport(last_time_substrate_high=last_high,
                            washout=washout, equilibrium_distances=dists,
                            final_time=trajectory.times[-1], final_state=final)
