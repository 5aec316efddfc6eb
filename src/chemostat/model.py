"""Competition models for a single growth-limiting resource.

A model couples the substrate balance ``S' = D*(S0 - S) - sum_i p_i(S)*x_i``
with per-species growth ``x_i' = f_i(S)*x_i``. Uptake laws vanish at zero
substrate and are positive elsewhere; net growth is negative at zero
substrate, and its smallest positive zero is the species' break-even
concentration. Species index 1 is, by convention, the candidate winner that
all stability certificates target.

Everything here is an immutable value; operations are pure functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from . import roots
from .expr import EvalError
from .scalarfn import (DifferenceFn, ExprFn, MonodFn, PolyFn, QuotientFn,
                       ScalarFn, Source, as_scalar_fn)


class ModelError(ValueError):
    """Base class for model-layer failures."""


class ConstructionError(ModelError):
    pass


class InvalidSpeciesError(ModelError):
    pass


class DomainError(ModelError):
    pass


class NotApplicableError(ModelError):
    """The requested analysis has no meaning for this model."""


_VALIDATION_GRID = 128


@dataclass(frozen=True)
class Species:
    """One competitor: net growth rate and substrate uptake rate.

    ``growth`` must be negative at ``S = 0``; ``uptake`` must vanish at 0 and
    be positive for positive substrate. These requirements are enforced when
    the species is placed into a :class:`ChemostatModel`.
    """

    label: str
    growth: ScalarFn
    uptake: ScalarFn
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ChemostatModel:
    """Dilution rate, inflow concentration, and an ordered species list."""

    dilution: float
    inflow: float
    species: tuple[Species, ...]
    normalized: bool = False
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "species", tuple(self.species))
        if self.dilution <= 0 or self.inflow <= 0:
            raise ConstructionError(
                f"dilution and inflow must be positive, got "
                f"D={self.dilution!r}, S0={self.inflow!r}")
        if not self.species:
            raise ConstructionError("a model needs at least one species")
        if self.normalized and not (self.dilution == 1.0 and self.inflow == 1.0):
            raise ConstructionError("a normalized model must have D=1 and S0=1")
        for k, sp in enumerate(self.species, start=1):
            _validate_species(sp, self.inflow, k)

    @property
    def n_species(self) -> int:
        return len(self.species)


def _validate_species(sp: Species, inflow: float, index: int) -> None:
    try:
        p0 = sp.uptake(0.0)
        if abs(p0) > 1e-12:
            raise ConstructionError(
                f"species {index} ({sp.label!r}): uptake(0) = {p0!r}, must be 0")
        if sp.growth(0.0) >= 0.0:
            raise ConstructionError(
                f"species {index} ({sp.label!r}): growth(0) must be negative")
        for k in range(1, _VALIDATION_GRID + 1):
            s = inflow * k / _VALIDATION_GRID
            if sp.uptake(s) <= 0.0:
                raise ConstructionError(
                    f"species {index} ({sp.label!r}): uptake({s!r}) is not positive")
    except EvalError as e:
        raise ConstructionError(
            f"species {index} ({sp.label!r}): {e}") from e


@dataclass(frozen=True)
class BreakEven:
    """Zeros of a growth function on a scan interval.

    ``lam`` is the break-even concentration (smallest zero, ``inf`` when the
    growth rate is negative on the whole interval); ``mu`` is the second zero
    when one exists. Serialized under the keys ``lambda`` and ``mu``.
    """

    lam: float
    mu: float
    zeros: tuple[float, ...] = field(default=())

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lam)


@functools.lru_cache(maxsize=512)
def break_even(growth: ScalarFn, scan_max: float = 1.0,
               grid: int = 2048, xtol: float = 1e-12) -> BreakEven:
    """Locate all sign-change zeros of ``growth`` on ``(0, scan_max]``.

    The scan uses a uniform grid (default 2048 points) and refines each
    bracketed sign change by bisection to ``xtol``. Zeros where the growth
    rate touches zero without changing sign are not detected. Every analysis
    uses the default ``(0, 1]``, the substrate range of a normalized model.
    """
    if scan_max <= 0:
        raise DomainError(f"scan_max must be positive, got {scan_max!r}")
    g0 = growth(0.0)
    if g0 >= 0.0:
        raise InvalidSpeciesError(
            f"growth(0) = {g0!r}; the net growth rate must be negative at S=0")
    zeros = roots.find_zeros(growth, 0.0, scan_max, n=grid, xtol=xtol, f_lo=g0)
    lam = zeros[0] if zeros else math.inf
    mu = zeros[1] if len(zeros) > 1 else math.inf
    return BreakEven(lam=lam, mu=mu, zeros=tuple(zeros))


def monod_species(a: float, b: float, D_i: float, yield_fn=1.0,
                  label: str = "species") -> Species:
    """Build a species with saturating gross growth ``a*S/(b+S)``.

    Net growth is ``a*S/(b+S) - D_i`` and uptake is gross growth divided by
    the (substrate-dependent) yield. ``a <= D_i`` is allowed: the species can
    never break even, which is flagged in its notes.
    """
    if a <= 0 or b <= 0 or D_i <= 0:
        raise ConstructionError(
            f"Monod parameters must be positive, got a={a!r}, b={b!r}, D_i={D_i!r}")
    yf = as_scalar_fn(yield_fn)
    for k in range(_VALIDATION_GRID + 1):
        s = k / _VALIDATION_GRID
        try:
            v = yf(s)
        except EvalError as e:
            raise ConstructionError(f"yield undefined on [0,1]: {e}") from e
        if v <= 0.0:
            raise ConstructionError(f"yield({s!r}) = {v!r}; must stay positive on [0,1]")
    notes = ()
    if a <= D_i:
        notes = ("maximal growth does not exceed the removal rate; "
                 "the break-even concentration is infinite",)
    rate = MonodFn(a, b)
    return Species(label=label,
                   growth=DifferenceFn(rate, PolyFn((D_i,))),
                   uptake=QuotientFn(rate, yf),
                   notes=notes)


def normalize(model: ChemostatModel) -> ChemostatModel:
    """Rescale to unit dilution and unit inflow.

    Substrate is measured in units of the inflow concentration and time in
    units of the dilution time: the rescaled laws are
    ``p(S0*s) / (S0*D)`` for uptake and ``f(S0*s) / D`` for growth.
    Idempotent: an already-normalized model is returned unchanged.
    """
    if model.normalized:
        return model
    d, s0 = model.dilution, model.inflow
    if d == 1.0 and s0 == 1.0:
        return replace(model, normalized=True)
    species = tuple(
        Species(label=sp.label,
                growth=sp.growth.scaled(s0, 1.0 / d),
                uptake=sp.uptake.scaled(s0, 1.0 / (s0 * d)),
                notes=sp.notes)
        for sp in model.species)
    note = (f"rescaled from dilution {d:g} and inflow {s0:g}; "
            f"one time unit now equals {1.0 / d:g} original time units")
    return ChemostatModel(dilution=1.0, inflow=1.0, species=species,
                          normalized=True, notes=model.notes + (note,))


def p1_curve(model: ChemostatModel, S: float) -> tuple[float, float]:
    """Value and derivative of ``(1 - S) / p_1(S)`` at ``S`` in ``(0, 1)``.

    This is the substrate nullcline expressed as the first species'
    steady-state concentration; its level and slope at the break-even point
    drive both the local and the global stability tests.
    """
    _require_normalized(model)
    if not 0.0 < S < 1.0:
        raise DomainError(f"S must lie in (0, 1), got {S!r}")
    return _nullcline(model.species[0].uptake, S)


def _nullcline(uptake: ScalarFn, S: float) -> tuple[float, float]:
    """Value and slope of the nullcline level ``(1 - S) / p(S)``."""
    pv, pd = uptake.eval_dual(S)
    q = 1.0 - S
    return q / pv, (-pv - q * pd) / (pv * pv)


def vector_field(model: ChemostatModel) -> Callable[[float, Sequence[float]], list[float]]:
    """Right-hand side ``(t, [S, x_1..x_N]) -> [S', x_1'..x_N']``.

    Compiled into one function from the species' shapes (see
    :meth:`ScalarFn.emit`). It evaluates ``p_1, f_1, p_2, f_2, ...`` with
    the same floating-point operations in the same order as calling each
    ScalarFn, so its results are bit-identical to that loop. A state with
    other than ``N + 1`` components raises ``ValueError``.
    """
    src = Source()
    xs = [f"x{i}" for i in range(1, model.n_species + 1)]
    src.lines.append(f"S, {', '.join(xs)}, = y")
    uptake_terms, growth_terms = [], []
    for sp, x in zip(model.species, xs):
        uptake_terms.append(f" + {sp.uptake.emit(src)[0]} * {x}")
        growth_terms.append(f", {sp.growth.emit(src)[0]} * {x}")
    d, s0 = src.bind(model.dilution), src.bind(model.inflow)
    src.lines.append(f"return [{d} * ({s0} - S) - (0.0{''.join(uptake_terms)})"
                     f"{''.join(growth_terms)}]")
    return src.compile("t, y")


def _require_normalized(model: ChemostatModel) -> None:
    if not model.normalized:
        raise ModelError("this operation requires a normalized model "
                         "(apply normalize() first)")


# ---------------------------------------------------------------------------
# JSON model files
#
# {
#   "D": 1.0, "S0": 1.0,
#   "constants": {"c2": 5},                  (optional, bound in expressions)
#   "species": [
#     {"label": "winner",
#      "monod": {"a": 1, "b": 0.1, "Di": 0.6, "yield": {"poly": [1, 4]}}},
#     {"label": "rival", "growth": "S-0.5", "uptake": "S"}
#   ]
# }
#
# growth/uptake/yield accept an expression string, a number, or one of the
# structured forms {"monod": {"a","b"}}, {"poly": [c0, c1, ...]},
# {"quotient": {"num","den"}}, {"difference": {"left","right"}}. Structured
# forms keep the model eligible for the closed-form certificate routes.

def scalar_fn_from_spec(spec, constants: dict[str, float] | None = None) -> ScalarFn:
    if isinstance(spec, (int, float, str)):
        return as_scalar_fn(spec, constants)
    if isinstance(spec, dict) and len(spec) == 1:
        (kind, body), = spec.items()
        if kind == "monod":
            return MonodFn(float(body["a"]), float(body["b"]))
        if kind == "poly":
            return PolyFn(tuple(float(c) for c in body))
        if kind == "quotient":
            return QuotientFn(scalar_fn_from_spec(body["num"], constants),
                              scalar_fn_from_spec(body["den"], constants))
        if kind == "difference":
            return DifferenceFn(scalar_fn_from_spec(body["left"], constants),
                                scalar_fn_from_spec(body["right"], constants))
    raise ConstructionError(f"cannot interpret function spec {spec!r}")


def scalar_fn_to_spec(fn: ScalarFn):
    if isinstance(fn, MonodFn):
        return {"monod": {"a": fn.a, "b": fn.b}}
    if isinstance(fn, PolyFn):
        return {"poly": list(fn.coeffs)}
    if isinstance(fn, QuotientFn):
        return {"quotient": {"num": scalar_fn_to_spec(fn.num),
                             "den": scalar_fn_to_spec(fn.den)}}
    if isinstance(fn, DifferenceFn):
        return {"difference": {"left": scalar_fn_to_spec(fn.left),
                               "right": scalar_fn_to_spec(fn.right)}}
    if isinstance(fn, ExprFn):
        return fn.text()
    raise TypeError(f"cannot serialize {fn!r}")


def model_from_dict(d: dict) -> ChemostatModel:
    try:
        dilution = float(d["D"])
        inflow = float(d["S0"])
        species_specs = d["species"]
    except (KeyError, TypeError, ValueError) as e:
        raise ConstructionError(f"malformed model spec: {e}") from e
    constants = {str(k): float(v) for k, v in d.get("constants", {}).items()}
    species = []
    for k, spec in enumerate(species_specs, start=1):
        label = str(spec.get("label", f"species{k}"))
        if "monod" in spec:
            m = dict(spec["monod"])
            yield_spec = m.get("yield", 1.0)
            sp = monod_species(float(m["a"]), float(m["b"]), float(m["Di"]),
                               scalar_fn_from_spec(yield_spec, constants),
                               label=label)
        else:
            try:
                sp = Species(label=label,
                             growth=scalar_fn_from_spec(spec["growth"], constants),
                             uptake=scalar_fn_from_spec(spec["uptake"], constants))
            except KeyError as e:
                raise ConstructionError(
                    f"species {k}: missing {e} (need growth/uptake or monod)") from e
        species.append(sp)
    return ChemostatModel(dilution=dilution, inflow=inflow, species=tuple(species),
                          normalized=(dilution == 1.0 and inflow == 1.0))


def model_to_dict(model: ChemostatModel) -> dict:
    return {
        "D": model.dilution,
        "S0": model.inflow,
        "species": [
            {"label": sp.label,
             "growth": scalar_fn_to_spec(sp.growth),
             "uptake": scalar_fn_to_spec(sp.uptake)}
            for sp in model.species
        ],
    }


def load_model(path) -> ChemostatModel:
    import json
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConstructionError(f"invalid JSON in {path}: {e}") from e
    return model_from_dict(data)
