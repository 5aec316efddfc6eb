"""Global-stability certificates for the normalized competition model.

The certified claim is competitive exclusion: the first species' break-even
equilibrium attracts every interior trajectory. Three ingredients are
checked on a dense substrate grid with local refinement:

* the winner's growth rate changes sign only at its break-even point;
* the substrate nullcline level ``(1-S)/p_1(S)`` crosses its equilibrium
  value only there;
* for every rival that could break even, a positive constant separates the
  two branches of a comparison ratio, pointwise dominating the rival's
  growth by the winner's.

Two constant families exist: one weighted by ``1 - S`` and one weighted by
``p_1(S)``; feasibility of the second implies feasibility of the first.
Closed-form routes certify saturating-growth models with constant or linear
yields directly from their parameters. Everything is grid-based with margin
reporting, not interval arithmetic: a certificate records where its margin
is smallest so users can tighten the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import roots
from .equilibria import local_stability_e1
from .model import (ChemostatModel, DomainError, NotApplicableError,
                    break_even, p1_curve, _require_normalized)
from .scalarfn import DifferenceFn, MonodFn, PolyFn, QuotientFn

GRID_SIZE = 4096
GRID_EPS = 1e-6
EXCLUSION = 1e-9
GAP_DELTA = 1e-6
REFINE_LEVELS = 3
REFINE_FACTOR = 10
SMALL_GROWTH = 1e-12

SCHEMA_VERSION = 1

VERDICT_GAS = "GAS-certified"
VERDICT_UNCERTIFIED = "locally-stable-uncertified"
VERDICT_UNSTABLE = "unstable"
VERDICT_WASHOUT = "washout-only"


@dataclass(frozen=True)
class SignConditionResult:
    """Outcome of a pointwise sign condition on (0, 1).

    ``margin`` is the smallest value of the oriented condition over all
    checked points (positive everywhere means the condition holds) and
    ``worst_point`` is where it was attained. ``decreasing`` is only set for
    the nullcline condition: true when the nullcline level falls at every
    grid point, which is sufficient on its own.
    """

    holds: bool
    worst_point: float
    margin: float
    decreasing: bool | None = None


@dataclass(frozen=True)
class GapAnalysis:
    """Feasible interval for one rival's comparison constant.

    Pointwise bounds partition by the sign of the rival's growth rate:
    where it is positive the constant must stay below the ratio, where it is
    negative the constant must stay above it. ``feasible`` requires the
    bounds to leave a gap of relative width ``delta``; ``chosen_alpha`` is a
    constant picked inside the gap and re-verified pointwise.
    """

    species_index: int
    lower_bound: float  # sup of required lower bounds; -inf when unconstrained
    upper_bound: float  # inf of required upper bounds; +inf when unconstrained
    feasible: bool
    chosen_alpha: float | None
    constant_name: str  # "alpha" (1-S weighting) or "c" (p_1 weighting)
    lower_point: float | None = None
    upper_point: float | None = None
    delta: float = GAP_DELTA


@dataclass(frozen=True)
class AnalyticRoute:
    """A closed-form certificate attempt for a structural model class."""

    name: str
    applicable: bool
    certified: bool
    reason: str
    params: dict | None = None


@dataclass(frozen=True)
class FiedlerHsuPair:
    i: int
    j: int
    holds: bool
    margin: float
    worst_point: float


@dataclass(frozen=True)
class FiedlerHsuReport:
    """Comparison conditions that exclude periodic orbits pairwise.

    ``sign_conditions[k]`` checks that species ``k+1`` changes growth sign
    only at its break-even point; ``pairs`` checks the ordered-pair growth
    comparison inequality. For a single species the pair set is empty and
    ``uptake_increasing`` reports whether the divergence argument applies.
    """

    sign_conditions: tuple[SignConditionResult, ...]
    pairs: tuple[FiedlerHsuPair, ...]
    all_hold: bool
    uptake_increasing: bool | None = None


@dataclass(frozen=True)
class CertificateReport:
    verdict: str
    lambda1: float
    x1_star: float | None
    lambdas: tuple[float, ...]
    mus: tuple[float, ...]
    retained: tuple[int, ...]
    h11: SignConditionResult | None
    h31: SignConditionResult | None
    local_stability: str | None
    gaps: tuple[GapAnalysis, ...]
    hsu_gaps: tuple[GapAnalysis, ...]
    analytic_routes: tuple[AnalyticRoute, ...]
    fh_conditions: FiedlerHsuReport
    notes: tuple[str, ...]
    grid_size: int = GRID_SIZE
    grid_eps: float = GRID_EPS
    delta: float = GAP_DELTA
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return _sanitize({
            "schema_version": self.schema_version,
            "verdict": self.verdict,
            "lambda1": self.lambda1,
            "x1_star": self.x1_star,
            "species": [
                {"index": k + 1, "lambda": lam, "mu": mu,
                 "retained": (k + 1) in self.retained}
                for k, (lam, mu) in enumerate(zip(self.lambdas, self.mus))
            ],
            "h11": _sign_dict(self.h11),
            "h31": _sign_dict(self.h31),
            "local_stability": self.local_stability,
            "gaps": [_gap_dict(g) for g in self.gaps],
            "hsu_gaps": [_gap_dict(g) for g in self.hsu_gaps],
            "analytic_routes": {
                r.name: {"applicable": r.applicable, "certified": r.certified,
                         "reason": r.reason, "params": r.params}
                for r in self.analytic_routes
            },
            "fh_conditions": {
                "sign_conditions": [_sign_dict(s) for s in self.fh_conditions.sign_conditions],
                "pairs": [{"i": p.i, "j": p.j, "holds": p.holds,
                           "margin": p.margin, "worst_point": p.worst_point}
                          for p in self.fh_conditions.pairs],
                "all_hold": self.fh_conditions.all_hold,
                "uptake_increasing": self.fh_conditions.uptake_increasing,
            },
            "notes": list(self.notes),
            "grid": {"size": self.grid_size, "eps": self.grid_eps,
                     "refine_levels": REFINE_LEVELS, "exclusion": EXCLUSION,
                     "delta": self.delta},
        })


def _sign_dict(s: SignConditionResult | None):
    if s is None:
        return None
    d = {"holds": s.holds, "worst_point": s.worst_point, "margin": s.margin}
    if s.decreasing is not None:
        d["decreasing"] = s.decreasing
    return d


def _gap_dict(g: GapAnalysis) -> dict:
    return {"species_index": g.species_index, "constant_name": g.constant_name,
            "lower_bound": g.lower_bound, "upper_bound": g.upper_bound,
            "feasible": g.feasible, "chosen_alpha": g.chosen_alpha,
            "lower_point": g.lower_point, "upper_point": g.upper_point}


def _sanitize(obj):
    """Make a structure strict-JSON safe: non-finite floats become strings."""
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Grid machinery

def standard_grid(n: int = GRID_SIZE, eps: float = GRID_EPS) -> list[float]:
    """n+1 uniform points from eps to 1-eps."""
    span = 1.0 - 2.0 * eps
    return [eps + k * span / n for k in range(n + 1)]


def _grid_min(fn, pts: list[float], exclude: float | None = None,
              radius: float = EXCLUSION) -> tuple[float, float]:
    """Minimum of ``fn`` over ``pts`` with local refinement.

    The cell around the minimizer is re-gridded ``REFINE_FACTOR`` times finer
    for ``REFINE_LEVELS`` rounds. Points within ``radius`` of ``exclude`` are
    never evaluated (the conditions are undefined or trivially tight there).
    """
    def keep(x):
        return exclude is None or abs(x - exclude) > radius

    best_v = math.inf
    best_x = pts[0]
    lo, hi = pts[0], pts[-1]
    level_pts = [x for x in pts if keep(x)]
    for _ in range(REFINE_LEVELS + 1):
        spacing = None
        prev = None
        for x in level_pts:
            v = fn(x)
            if v < best_v:
                best_v, best_x = v, x
            if prev is not None and spacing is None:
                spacing = x - prev
            prev = x
        if spacing is None:
            break
        a = max(lo, best_x - spacing)
        b = min(hi, best_x + spacing)
        n = 2 * REFINE_FACTOR
        level_pts = [a + k * (b - a) / n for k in range(n + 1)]
        level_pts = [x for x in level_pts if keep(x)]
    return best_v, best_x


# ---------------------------------------------------------------------------
# Sign conditions

def check_h11(model: ChemostatModel, grid_size: int = GRID_SIZE) -> SignConditionResult:
    """Winner growth sign condition: ``(S - lambda_1) * f_1(S) > 0`` on (0,1).

    Holds exactly when the break-even point is the only zero of the winner's
    growth rate below the inflow level.
    """
    _require_normalized(model)
    f1 = model.species[0].growth
    lam1 = break_even(f1).lam
    if not lam1 < 1.0:
        raise NotApplicableError(
            f"species 1 break-even is {lam1!r}; the condition needs it below 1")
    return _growth_sign(f1, lam1, standard_grid(grid_size))


def _growth_sign(g, lam: float, pts: list[float]) -> SignConditionResult:
    """Growth changes sign only at ``lam``: the minimum over ``pts`` of
    ``(S - lam) * g(S)``, or of ``-g(S)`` when ``lam`` is not below 1."""
    if lam < 1.0:
        margin, worst = _grid_min(lambda s: (s - lam) * g(s), pts, exclude=lam)
    else:
        margin, worst = _grid_min(lambda s: -g(s), pts)
    return SignConditionResult(holds=margin > 0.0, worst_point=worst, margin=margin)


def check_h31(model: ChemostatModel, grid_size: int = GRID_SIZE) -> SignConditionResult:
    """Nullcline single-crossing condition on (0,1).

    ``(S - lambda_1) * (P_1(S) - P_1(lambda_1)) < 0`` where ``P_1`` is the
    substrate nullcline level; the margin is reported with the sign flipped
    so that positive means satisfied. Also records whether ``P_1`` falls at
    every grid point, a sufficient condition in its own right.
    """
    _require_normalized(model)
    lam1 = break_even(model.species[0].growth).lam
    if not lam1 < 1.0:
        raise NotApplicableError(
            f"species 1 break-even is {lam1!r}; the condition needs it below 1")
    p1_lam = p1_curve(model, lam1)[0]

    def margin_fn(s):
        return -(s - lam1) * (p1_curve(model, s)[0] - p1_lam)

    pts = standard_grid(grid_size)
    margin, worst = _grid_min(margin_fn, pts, exclude=lam1)
    decreasing = all(p1_curve(model, s)[1] < 0.0 for s in pts)
    return SignConditionResult(holds=margin > 0.0, worst_point=worst,
                               margin=margin, decreasing=decreasing)


# ---------------------------------------------------------------------------
# Gap analyses

def gap_for_species(model: ChemostatModel, i: int, grid_size: int = GRID_SIZE,
                    delta: float = GAP_DELTA) -> GapAnalysis:
    """Comparison constant weighted by ``1 - S`` for rival ``i`` (1-based).

    Feasibility certifies the pointwise inequality
    ``f_1(S) * p_i(S) > alpha * f_i(S) * (1 - S)`` on (0, 1).
    """
    return _gap_analysis(model, i, lambda s: 1.0 - s, "alpha", grid_size, delta)


def hsu_gap_for_species(model: ChemostatModel, i: int, grid_size: int = GRID_SIZE,
                        delta: float = GAP_DELTA) -> GapAnalysis:
    """Comparison constant weighted by ``p_1(S)``: certifies
    ``f_1(S) * p_i(S) > c * f_i(S) * p_1(S)`` on (0, 1)."""
    p1 = model.species[0].uptake
    return _gap_analysis(model, i, p1, "c", grid_size, delta)


def _gap_analysis(model, i, weight, constant_name, grid_size, delta) -> GapAnalysis:
    _require_normalized(model)
    if i < 2 or i > model.n_species:
        raise DomainError(f"rival index must be in 2..{model.n_species}, got {i}")
    if not break_even(model.species[i - 1].growth).lam < 1.0:
        raise NotApplicableError(
            f"species {i} cannot break even below the inflow level; "
            "it washes out and the certificate needs no comparison constant")
    return _gap_scan(model, i, weight, constant_name, grid_size, delta)


def _gap_scan(model, i, weight, constant_name, grid_size, delta) -> GapAnalysis:
    f1 = model.species[0].growth
    sp = model.species[i - 1]
    fi, pi = sp.growth, sp.uptake
    pts = standard_grid(grid_size)
    lower, upper = -math.inf, math.inf
    lower_pt = upper_pt = None
    hard_fail_pt = None
    for s in pts:
        a = f1(s) * pi(s)
        fi_s = fi(s)
        if abs(fi_s) < SMALL_GROWTH:
            if a <= 0.0:
                hard_fail_pt = s
            continue
        r = a / (fi_s * weight(s))
        if fi_s > 0.0:
            if r < upper:
                upper, upper_pt = r, s
        else:
            if r > lower:
                lower, lower_pt = r, s

    lo = max(lower, 0.0)
    feasible = (hard_fail_pt is None and upper > 0.0
                and upper > lo + delta * max(1.0, abs(lo)))
    chosen = None
    if feasible:
        chosen = _choose_constant(lo, upper)
        ok, chosen = _reverify(f1, fi, pi, weight, pts, chosen, lo, upper)
        if not ok:
            feasible, chosen = False, None
    return GapAnalysis(species_index=i, lower_bound=lower, upper_bound=upper,
                       feasible=feasible, chosen_alpha=chosen,
                       constant_name=constant_name,
                       lower_point=lower_pt, upper_point=upper_pt, delta=delta)


def energy_constants(model: ChemostatModel, report: CertificateReport,
                     which: str) -> list[float]:
    """One comparison constant per rival (species 2..N) for an energy function.

    ``which`` is ``"wl"`` (weight ``1 - S``, constants of ``report.gaps``)
    or ``"hsu"`` (weight ``p_1``, constants of ``report.hsu_gaps``). The
    report covers retained rivals only, but the energy function has a
    penalty term for every rival. A rival that washes out gets its constant
    from the same gap scan on the report's grid; its growth is negative
    throughout, so only a lower bound can bind. Raises
    :class:`NotApplicableError` naming the first rival without a feasible
    constant.
    """
    if which == "wl":
        gaps, weight, name = report.gaps, (lambda s: 1.0 - s), "alpha"
    elif which == "hsu":
        gaps, weight, name = report.hsu_gaps, model.species[0].uptake, "c"
    else:
        raise DomainError(f"which must be 'wl' or 'hsu', got {which!r}")
    by_index = {g.species_index: g for g in gaps}
    constants = []
    for i in range(2, model.n_species + 1):
        g = by_index.get(i)
        if g is None:
            g = _gap_scan(model, i, weight, name, report.grid_size, report.delta)
        if not g.feasible:
            raise NotApplicableError(
                f"species {i} has no feasible comparison constant {name}")
        constants.append(g.chosen_alpha)
    return constants


def _choose_constant(lo: float, hi: float) -> float:
    if math.isinf(hi):
        return max(2.0 * lo, 1.0)
    if lo <= 0.0:
        return 0.5 * hi
    return math.sqrt(lo * hi)


def _reverify(f1, fi, pi, weight, pts, chosen, lo, hi) -> tuple[bool, float]:
    # Guard against refinement artifacts: the candidate must satisfy the
    # inequality at every grid point; on failure, nudge it toward the middle
    # of the admissible interval a bounded number of times.
    mid = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * max(lo, 1.0)
    for _ in range(20):
        if all(f1(s) * pi(s) > chosen * fi(s) * weight(s) for s in pts):
            return True, chosen
        chosen = 0.5 * (chosen + mid)
    return False, chosen


# ---------------------------------------------------------------------------
# Critical yield-slope curve

def c_crit(b: float) -> float:
    """Largest yield slope keeping ``(1-S)(b+S)(1+c*S)/S`` decreasing on [0,1].

    For ``b >= 1`` every non-negative slope works (returns ``inf``); below 1
    it is the unique positive root of ``(c*(1-b) - 1)**3 = 27*b*c**2``,
    located by geometric bracket expansion and bisection to 1e-10.
    """
    if b < 0.0:
        raise DomainError(f"half-saturation must be non-negative, got {b!r}")
    if b >= 1.0:
        return math.inf
    if b == 0.0:
        return 1.0

    def h(c):
        return (c * (1.0 - b) - 1.0) ** 3 - 27.0 * b * c * c

    lo = 1.0 / (1.0 - b)
    flo = h(lo)  # equals -27*b*lo**2 < 0
    hi, fhi = roots.expand_upper_bracket(h, lo, flo)
    return roots.bisect_root(h, lo, hi, flo, fhi, xtol=1e-10)


# ---------------------------------------------------------------------------
# Structural (closed-form) routes

def _monod_linear_params(sp) -> tuple[float, float, float, float, float] | None:
    """Extract (a, b, D, Y, c) when the species has saturating growth
    ``a*S/(b+S) - D`` and uptake divided by a linear yield ``Y*(1+c*S)``."""
    g, u = sp.growth, sp.uptake
    if not (isinstance(g, DifferenceFn) and isinstance(g.left, MonodFn)
            and isinstance(g.right, PolyFn) and len(g.right.coeffs) == 1):
        return None
    if not (isinstance(u, QuotientFn) and isinstance(u.num, MonodFn)
            and isinstance(u.den, PolyFn) and 1 <= len(u.den.coeffs) <= 2):
        return None
    rate, d = g.left, g.right.coeffs[0]
    if (u.num.a, u.num.b) != (rate.a, rate.b) or d <= 0.0:
        return None
    coeffs = u.den.coeffs
    Y = coeffs[0]
    c = coeffs[1] / Y if len(coeffs) == 2 else 0.0
    if Y <= 0.0 or c < 0.0:
        return None
    return rate.a, rate.b, d, Y, c


def _monod_lambda(a: float, b: float, d: float) -> float:
    return b * d / (a - d) if a > d else math.inf


def check_monod_constant_yields(model: ChemostatModel) -> AnalyticRoute:
    """Closed-form route for saturating growth with constant yields.

    Certified exactly when the first species has the strictly smallest
    break-even concentration and it lies below the inflow level.
    """
    name = "monod_constant_yields"
    params = [_monod_linear_params(sp) for sp in model.species]
    if any(p is None or p[4] != 0.0 for p in params):
        return AnalyticRoute(name, False, False,
                             "model is not Monod-with-constant-yields", None)
    return _ordering_route(model, name, params, require_slopes=False)


def check_monod_linear_yields(model: ChemostatModel) -> AnalyticRoute:
    """Closed-form route for saturating growth with linear yields.

    On top of the break-even ordering, every yield slope of a species that
    can break even must stay at or below the critical slope determined by
    the winner's half-saturation constant.
    """
    name = "monod_linear_yields"
    params = [_monod_linear_params(sp) for sp in model.species]
    if any(p is None for p in params):
        return AnalyticRoute(name, False, False,
                             "model is not Monod-with-linear-yields", None)
    return _ordering_route(model, name, params, require_slopes=True)


def _ordering_route(model, name, params, require_slopes) -> AnalyticRoute:
    lams = [_monod_lambda(a, b, d) for (a, b, d, _, _) in params]
    lam1 = lams[0]
    detail = {
        "lambdas": list(lams),
        "species": [{"a": a, "b": b, "D": d, "Y": Y, "c": c}
                    for (a, b, d, Y, c) in params],
    }
    if not lam1 < 1.0:
        return AnalyticRoute(name, True, False,
                             "species 1 cannot break even below the inflow level",
                             detail)
    if not all(lam1 < lam for lam in lams[1:]):
        return AnalyticRoute(name, True, False,
                             "species 1 does not have the strictly smallest "
                             "break-even concentration", detail)
    if require_slopes:
        b1 = params[0][1]
        crit = c_crit(b1)
        detail["c_crit"] = crit
        offenders = [k + 1 for k, (p, lam) in enumerate(zip(params, lams))
                     if lam < 1.0 and p[4] > crit]
        if b1 < 1.0 and offenders:
            return AnalyticRoute(
                name, True, False,
                f"yield slope exceeds the critical value {crit:.6g} for "
                f"species {offenders}", detail)
    return AnalyticRoute(name, True, True, "parameter conditions hold", detail)


# ---------------------------------------------------------------------------
# Pairwise comparison conditions

def check_fiedler_hsu(model: ChemostatModel,
                      grid_size: int = GRID_SIZE) -> FiedlerHsuReport:
    """Pairwise periodic-orbit exclusion conditions on the standard grid.

    Per species: growth changes sign only at its break-even point. Per
    ordered pair (i, j), i != j:
    ``f_i(S) < 1 + f_j(S) + (1-S) * p_j'(S) / p_j(S)``.
    These are stricter than the gap certificates for rivals; failures here
    do not preclude certification by the comparison-constant routes.
    """
    _require_normalized(model)
    pts = standard_grid(grid_size)
    signs = [_growth_sign(sp.growth, break_even(sp.growth).lam, pts)
             for sp in model.species]
    pairs = []
    n = model.n_species
    for i in range(1, n + 1):
        fi = model.species[i - 1].growth
        for j in range(1, n + 1):
            if i == j:
                continue
            fj = model.species[j - 1].growth
            pj = model.species[j - 1].uptake

            def margin_fn(s, fi=fi, fj=fj, pj=pj):
                pv, pd = pj.eval_dual(s)
                return 1.0 + fj(s) + (1.0 - s) * pd / pv - fi(s)

            margin, worst = _grid_min(margin_fn, pts)
            pairs.append(FiedlerHsuPair(i=i, j=j, holds=margin > 0.0,
                                        margin=margin, worst_point=worst))
    uptake_increasing = None
    if n == 1:
        p1 = model.species[0].uptake
        uptake_increasing = all(p1.eval_dual(s)[1] > 0.0 for s in pts)
    all_hold = all(s.holds for s in signs) and all(p.holds for p in pairs)
    return FiedlerHsuReport(sign_conditions=tuple(signs), pairs=tuple(pairs),
                            all_hold=all_hold, uptake_increasing=uptake_increasing)


# ---------------------------------------------------------------------------
# Composition

def certify(model: ChemostatModel, grid_size: int = GRID_SIZE,
            delta: float = GAP_DELTA) -> CertificateReport:
    """Run every certificate and compose a verdict.

    Rivals whose break-even concentration is at or above the inflow level
    wash out on their own and are excluded from the gap analyses (they stay
    in the model for simulation). The verdict is ``GAS-certified`` when the
    two sign conditions hold and every retained rival admits a comparison
    constant, or when a closed-form route certifies, unless the winner's
    equilibrium is linearly unstable; otherwise it reflects the local
    stability of that equilibrium. With no species able to break even, only
    washout remains.
    """
    _require_normalized(model)
    notes: list[str] = []
    bes = [break_even(sp.growth) for sp in model.species]
    lambdas = tuple(be.lam for be in bes)
    mus = tuple(be.mu for be in bes)
    for k, be in enumerate(bes, start=1):
        if len(be.zeros) == 2:
            notes.append(
                f"species {k}: growth is positive only between "
                f"{be.lam:.6g} and {be.mu:.6g}; the general gap analysis "
                "covers this two-zero shape")
        elif len(be.zeros) > 2:
            notes.append(f"species {k}: growth has {len(be.zeros)} zeros on "
                         "the scan interval")

    lam1 = lambdas[0]
    analytic = (check_monod_constant_yields(model),
                check_monod_linear_yields(model))
    fh = check_fiedler_hsu(model, grid_size)

    if not lam1 < 1.0:
        for k, lam in enumerate(lambdas[1:], start=2):
            if lam < 1.0:
                notes.append(
                    f"species {k} can break even below the inflow level; "
                    "relabel it as species 1 to certify its equilibrium")
        return CertificateReport(
            verdict=VERDICT_WASHOUT, lambda1=lam1, x1_star=None,
            lambdas=lambdas, mus=mus, retained=(), h11=None, h31=None,
            local_stability=None, gaps=(), hsu_gaps=(),
            analytic_routes=analytic, fh_conditions=fh, notes=tuple(notes),
            grid_size=grid_size, delta=delta)

    x1_star = p1_curve(model, lam1)[0]
    h11 = check_h11(model, grid_size)
    h31 = check_h31(model, grid_size)
    local = local_stability_e1(model)

    retained = []
    for k, lam in enumerate(lambdas[1:], start=2):
        if lam < 1.0:
            retained.append(k)
        else:
            notes.append(f"species {k} washes out on its own "
                         "(break-even at or above the inflow level); "
                         "excluded from the gap analyses")
    gaps = tuple(gap_for_species(model, i, grid_size, delta) for i in retained)
    hsu_gaps = tuple(hsu_gap_for_species(model, i, grid_size, delta)
                     for i in retained)

    numeric_ok = h11.holds and h31.holds and all(g.feasible for g in gaps)
    analytic_ok = any(r.certified for r in analytic)
    if local == "unstable":
        verdict = VERDICT_UNSTABLE
        if numeric_ok or analytic_ok:
            notes.append("the certificate conditions held on the grid, but the "
                         "winner's equilibrium is linearly unstable")
    elif numeric_ok or analytic_ok:
        verdict = VERDICT_GAS
        for i in retained:
            if not lam1 < lambdas[i - 1]:
                raise RuntimeError(
                    f"internal inconsistency: certified although species {i} "
                    f"breaks even at {lambdas[i - 1]!r} <= {lam1!r}")
    else:
        verdict = VERDICT_UNCERTIFIED

    return CertificateReport(
        verdict=verdict, lambda1=lam1, x1_star=x1_star, lambdas=lambdas,
        mus=mus, retained=tuple(retained), h11=h11, h31=h31,
        local_stability=local, gaps=gaps, hsu_gaps=hsu_gaps,
        analytic_routes=analytic, fh_conditions=fh, notes=tuple(notes),
        grid_size=grid_size, delta=delta)


def gi_curve(model: ChemostatModel, i: int, pts: list[float]) -> list[float]:
    """Sample the comparison ratio ``f_i(S)*(1-S) / (f_1(S)*p_i(S))`` for
    plotting; the gap criterion reads min/max of this curve on either side
    of the winner's break-even point."""
    f1 = model.species[0].growth
    sp = model.species[i - 1]
    out = []
    for s in pts:
        den = f1(s) * sp.uptake(s)
        out.append(sp.growth(s) * (1.0 - s) / den if den != 0.0 else math.nan)
    return out
