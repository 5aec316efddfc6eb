"""Single-species phase-plane analysis: landmarks, return maps, limit cycles.

With one species the normalized system lives in the (S, x) plane. The
substrate nullcline ``x = P(S) = (1-S)/p(S)`` organizes everything: when it
has two interior critical points S2 < S3, the level-matched points S1 (same
height as S3, left of S2) and S4 (same height as S2, right of S3) split
(0, 1) into regions where the equilibrium is respectively the unique
nullcline crossing of its level (global stability candidate), on a rising
arc (unstable, surrounded by a cycle), or on a falling arc with two extra
crossings (locally stable, global fate unresolved).

Periodic orbits are found through the Poincare section ``S = lambda``,
where ``x' = 0`` makes every non-tangential crossing transversal. A cycle
crosses the section twice (once going left, once going right), so fixed
points of the return map found on either half-line are deduplicated by
matching their orbits before reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import roots
from .equilibria import NoEquilibriumError
from .model import (ChemostatModel, DomainError, ModelError, Species,
                    break_even, vector_field, _nullcline, _require_normalized)
from .rk45 import DormandPrince54

TANGENT_TOL = 1e-10
TIME_TOL = 1e-10
EQUILIBRIUM_EXCLUSION = 1e-6
MARGINAL_BAND = 1e-3
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


class UnsupportedShapeError(ModelError):
    pass


class NoReturnError(RuntimeError):
    def __init__(self, t_max: float, last_state: list[float]):
        super().__init__(
            f"no section return within t={t_max:g}; the trajectory is "
            f"converging to a boundary or equilibrium (last state {last_state!r})")
        self.t_max = t_max
        self.last_state = last_state


@dataclass(frozen=True)
class Landmarks:
    """Level-matched landmark points of the nullcline, and the case they
    imply for the equilibrium at ``lam``. ``s1..s4`` are None when the
    nullcline is monotone (no interior critical points)."""

    s1: float | None
    s2: float | None
    s3: float | None
    s4: float | None
    case: str  # "gas-candidate" | "unstable-with-cycle" | "bistable-uncertain"
    lam: float
    x_star: float


def landmarks(species: Species, grid: int = 2048) -> Landmarks:
    """Locate the nullcline's critical points and level-matched landmarks.

    Supports nullclines with exactly zero or two interior critical points;
    anything else raises :class:`UnsupportedShapeError` rather than
    guessing. Requires the species to break even below the inflow level.
    """
    lam = break_even(species.growth).lam
    if not lam < 1.0:
        raise NoEquilibriumError(
            f"break-even {lam!r}: no positive equilibrium to classify")
    def P(s):
        return _nullcline(species.uptake, s)[0]

    x_star = P(lam)
    eps = 1e-6

    def dP(s):
        return _nullcline(species.uptake, s)[1]

    crits = roots.find_zeros(dP, eps, 1.0 - eps, n=grid)
    if len(crits) == 0:
        return Landmarks(None, None, None, None, "gas-candidate", lam, x_star)
    if len(crits) != 2:
        raise UnsupportedShapeError(
            f"nullcline has {len(crits)} interior critical points; "
            "only 0 or 2 are supported")
    s2, s3 = crits
    p3 = P(s3)
    s1 = roots.bisect_root(lambda s: P(s) - p3, eps, s2,
                           P(eps) - p3, P(s2) - p3)
    p2 = P(s2)
    s4 = roots.bisect_root(lambda s: P(s) - p2, s3, 1.0 - eps,
                           P(s3) - p2, P(1.0 - eps) - p2)
    if lam < s1 or lam > s4:
        case = "gas-candidate"
    elif s2 < lam < s3:
        case = "unstable-with-cycle"
    else:
        case = "bistable-uncertain"
    return Landmarks(s1, s2, s3, s4, case, lam, x_star)


# ---------------------------------------------------------------------------
# Poincare return map

def _single_species(model: ChemostatModel) -> Species:
    _require_normalized(model)
    if model.n_species != 1:
        raise DomainError(
            f"phase-plane analysis needs exactly one species, "
            f"model has {model.n_species}")
    return model.species[0]


def _section_data(model: ChemostatModel):
    sp = _single_species(model)
    lam = break_even(sp.growth).lam
    if not lam < 1.0:
        raise NoEquilibriumError(
            f"break-even {lam!r}: the section S=lambda is not defined")
    x_star = _nullcline(sp.uptake, lam)[0]
    return sp, lam, x_star


def return_map(model: ChemostatModel, x_start: float,
               rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
               t_max: float = 1e4) -> tuple[float, float]:
    """First return to the section ``S = lambda`` with matching direction.

    Integrates from ``(lambda, x_start)`` until the trajectory crosses the
    section again moving the same way it left (same sign of S'), and
    returns that crossing's ``x`` and time. Each crossing is located to a
    time tolerance of 1e-10 on the dense output of the accepted step that
    contains it, without re-integrating; tangential crossings
    (|S'| <= 1e-10) are skipped. Starting on the nullcline itself is
    reported as an immediate fixed point with period 0. Raises
    :class:`NoReturnError` after ``t_max``.
    """
    x_return, period, _ = _first_return(model, x_start, rtol, atol, t_max)
    return x_return, period


def _first_return(model, x_start, rtol, atol, t_max):
    """``(x, t)`` of the first same-direction return and the ``x`` of every
    transversal crossing up to it, starting with ``x_start``."""
    _, lam, _ = _section_data(model)
    if x_start <= 0.0:
        raise DomainError(f"x_start must be positive, got {x_start!r}")
    rhs = vector_field(model)
    s_dot0 = rhs(0.0, [lam, x_start])[0]
    if abs(s_dot0) <= TANGENT_TOL:
        return x_start, 0.0, [x_start]
    crossings = [x_start]
    for t_c, x_c, s_dot in _crossings(rhs, lam, x_start, rtol, atol, t_max):
        crossings.append(x_c)
        if (s_dot > 0.0) == (s_dot0 > 0.0):
            return x_c, t_c, crossings


def _crossings(rhs, lam, x_start, rtol, atol, t_max):
    """Yield ``(t, x, S')`` at each transversal crossing of ``S = lam`` by
    the orbit from ``(lam, x_start)``; raise NoReturnError at ``t_max``.

    A crossing is bracketed by the sign of ``S - lam`` at the ends of an
    accepted step and located to ``TIME_TOL`` on the step's dense output,
    which costs no right-hand-side calls; one call at the crossing gives
    the S' that tells its direction and rules out tangency.
    """
    stepper = DormandPrince54(rhs, 0.0, [lam, x_start], rtol=rtol, atol=atol)
    g_prev = 0.0
    while stepper.step(t_max):
        g_new = stepper.y[0] - lam
        if g_prev != 0.0 and (g_new == 0.0 or (g_new > 0.0) != (g_prev > 0.0)):
            if g_new == 0.0:
                t_c, y_c = stepper.t, stepper.y
            else:
                state = stepper.dense_output()
                t_c = roots.brent_root(lambda t: state(t)[0] - lam,
                                       stepper.t_prev, stepper.t,
                                       g_prev, g_new, xtol=TIME_TOL)
                y_c = state(t_c)
            s_dot = rhs(t_c, y_c)[0]
            if abs(s_dot) > TANGENT_TOL:
                yield t_c, y_c[1], s_dot
        g_prev = g_new
    raise NoReturnError(t_max, list(stepper.y))


# ---------------------------------------------------------------------------
# Cycle detection

@dataclass(frozen=True)
class Cycle:
    x_section: float  # the largest fixed point the scan found on this orbit
    period: float
    stability: str  # "stable" | "unstable" | "marginal"
    multiplier: float  # return-map slope at the fixed point
    crossings: tuple[float, ...]  # all section crossings of the orbit


@dataclass(frozen=True)
class CycleResult:
    fixed_points: tuple[Cycle, ...]
    displacement: tuple[tuple[float, float | None, float | None], ...]
    x_star: float
    lam: float


def find_cycles(model: ChemostatModel, x_lo: float | None = None,
                x_hi: float | None = None, n_grid: int = 64,
                refine_tol: float = 1e-8, rtol: float = DEFAULT_RTOL,
                atol: float = DEFAULT_ATOL, t_max: float = 1e4) -> CycleResult:
    """Detect limit cycles through the section ``S = lambda``.

    The displacement ``R(x) - x`` of the return map is scanned on a grid
    over ``[x_lo, x_hi]`` (default ``[0.01, 20]`` times the equilibrium
    level); each sign change is refined by Brent's method. The cell
    containing the equilibrium is replaced by two geometric sub-grids
    closing in on it from both sides, so small cycles are still resolved,
    and fixed points within the equilibrium's exclusion neighborhood are
    discarded. Fixed
    points lying on the same orbit are merged into a single cycle; stability
    comes from the return-map slope (marginal within 1e-3 of unity).
    Grid points whose trajectory never returns are skipped.
    """
    _, lam, x_star = _section_data(model)
    if x_lo is None:
        x_lo = 0.01 * x_star
    if x_hi is None:
        x_hi = 20.0 * x_star
    if not 0.0 < x_lo < x_hi:
        raise DomainError(f"need 0 < x_lo < x_hi, got {x_lo!r}, {x_hi!r}")

    exclusion = max(EQUILIBRIUM_EXCLUSION, 1e-9 * x_star)
    xs = _scan_points(x_lo, x_hi, n_grid, x_star, exclusion)

    def displacement(x):
        try:
            r, period = return_map(model, x, rtol=rtol, atol=atol, t_max=t_max)
        except NoReturnError:
            return None, None
        return r - x, period

    samples = []
    for x in xs:
        d, period = displacement(x)
        samples.append((x, None if d is None else d + x, period))

    brackets = []
    prev = None
    for (x, r, _) in samples:
        if r is None:
            continue
        d = r - x
        if prev is not None:
            xp, dp = prev
            if d == 0.0 or (dp > 0.0) != (d > 0.0):
                if not xp < x_star < x:  # never bracket the equilibrium
                    brackets.append((xp, dp, x, d))
        prev = (x, d)

    def displacement_strict(x):
        d, _ = displacement(x)
        if d is None:
            raise NoReturnError(t_max, [lam, x])
        return d

    fixed = []
    for (a, da, b, db) in brackets:
        try:
            root = roots.brent_root(displacement_strict, a, b, da, db,
                                    xtol=refine_tol)
        except NoReturnError:
            continue
        if abs(root - x_star) > exclusion:
            fixed.append(root)

    cycles = _classify_and_merge(model, fixed, x_star, rtol, atol, t_max)
    return CycleResult(fixed_points=tuple(cycles),
                       displacement=tuple(samples), x_star=x_star, lam=lam)


def _scan_points(x_lo, x_hi, n_grid, x_star, exclusion) -> list[float]:
    xs = [x_lo + k * (x_hi - x_lo) / (n_grid - 1) for k in range(n_grid)]
    if not x_lo < x_star < x_hi:
        return [x for x in xs if abs(x - x_star) > exclusion]
    kept = [x for x in xs if abs(x - x_star) > exclusion]
    below = max(x for x in kept if x < x_star)
    above = min(x for x in kept if x > x_star)
    extra = []
    for anchor, sign in ((below, -1.0), (above, 1.0)):
        gap = abs(anchor - x_star)
        while gap > 2.0 * exclusion:
            gap *= 0.5
            extra.append(x_star + sign * gap)
    return sorted(set(kept + extra))


def _classify_and_merge(model, fixed, x_star, rtol, atol, t_max) -> list[Cycle]:
    records = []
    for x in fixed:
        _, period, crossings = _first_return(model, x, rtol, atol, t_max)
        h = 1e-4 * max(1.0, abs(x))
        r_plus = return_map(model, x + h, rtol=rtol, atol=atol, t_max=t_max)[0]
        r_minus = return_map(model, x - h, rtol=rtol, atol=atol, t_max=t_max)[0]
        slope = (r_plus - r_minus) / (2.0 * h)
        if abs(abs(slope) - 1.0) < MARGINAL_BAND:
            stability = "marginal"
        elif abs(slope) < 1.0:
            stability = "stable"
        else:
            stability = "unstable"
        records.append({"x": x, "period": period, "stability": stability,
                        "multiplier": slope, "crossings": crossings})

    merged: list[Cycle] = []
    used = [False] * len(records)
    for i, rec in enumerate(records):
        if used[i]:
            continue
        used[i] = True
        group = [rec]
        for j in range(i + 1, len(records)):
            if used[j]:
                continue
            other = records[j]
            tol = 1e-5 * max(1.0, abs(other["x"]))
            if any(abs(other["x"] - c) < tol for c in rec["crossings"]):
                used[j] = True
                group.append(other)
        rep = max(group, key=lambda r: r["x"])
        crossings = _cluster(c for r in group for c in r["crossings"])
        merged.append(Cycle(x_section=rep["x"], period=rep["period"],
                            stability=rep["stability"],
                            multiplier=rep["multiplier"],
                            crossings=tuple(crossings)))
    merged.sort(key=lambda c: max(abs(x - x_star) for x in (c.crossings or (c.x_section,))))
    return merged


def _cluster(values, rel_tol: float = 1e-5) -> list[float]:
    """Collapse nearly-equal section coordinates into one value each."""
    out: list[float] = []
    for v in sorted(values):
        if out and abs(v - out[-1]) <= rel_tol * max(1.0, abs(v)):
            continue
        out.append(v)
    return out
