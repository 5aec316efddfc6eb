"""Equilibria of the normalized model and local stability of the winner.

Steady states come in two kinds: total washout at ``(1, 0, ..., 0)``, and
single-survivor states where one species sits at a zero of its growth rate
and everybody else is extinct. Local stability of the first species'
break-even equilibrium follows from two scalar signs: the growth rate must
increase through its zero, and the substrate nullcline level must decrease
through it. No Jacobian eigenvalues are computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (ChemostatModel, ModelError, break_even, p1_curve,
                    vector_field, _require_normalized)


class NoEquilibriumError(ModelError):
    pass


RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Equilibrium:
    """A steady state; ``species_index`` is 1-based, None for washout."""

    kind: str  # "washout" or "single-species"
    species_index: int | None
    S_star: float
    x: tuple[float, ...]
    residual: float

    @property
    def state(self) -> tuple[float, ...]:
        return (self.S_star,) + self.x


def enumerate_equilibria(model: ChemostatModel,
                         residual_tol: float = RESIDUAL_TOL) -> list[Equilibrium]:
    """Washout plus one equilibrium per growth-rate zero inside (0, 1).

    Every zero of every species' growth rate counts, not only the break-even
    concentration. Each returned equilibrium is re-checked by evaluating the
    model's right-hand side; the max-norm residual is stored on the result.
    """
    _require_normalized(model)
    rhs = vector_field(model)
    n = model.n_species

    def make(kind, index, s_star, x):
        res = max(abs(v) for v in rhs(0.0, (s_star,) + x))
        eq = Equilibrium(kind=kind, species_index=index, S_star=s_star,
                         x=x, residual=res)
        if res > residual_tol:
            raise ModelError(
                f"equilibrium residual {res:g} exceeds {residual_tol:g} at "
                f"S={s_star!r}; the growth zero may be spurious")
        return eq

    out = [make("washout", None, 1.0, (0.0,) * n)]
    for i, sp in enumerate(model.species, start=1):
        for z in break_even(sp.growth).zeros:
            if not 0.0 < z < 1.0:
                continue
            x = [0.0] * n
            x[i - 1] = (1.0 - z) / sp.uptake(z)
            out.append(make("single-species", i, z, tuple(x)))
    return out


def local_stability_e1(model: ChemostatModel, tol: float = 1e-9) -> str:
    """Classify the first species' break-even equilibrium.

    Returns ``"stable"`` when the growth rate rises through its zero and the
    nullcline level falls through it, ``"unstable"`` when either sign is
    strictly reversed beyond ``tol``, and ``"inconclusive"`` inside the
    ``tol`` band where the linearization is too degenerate to call.
    """
    _require_normalized(model)
    lam = break_even(model.species[0].growth).lam
    if not lam < 1.0:
        raise NoEquilibriumError(
            f"species 1 has break-even {lam!r}; no positive equilibrium exists")
    _, f1d = model.species[0].growth.eval_dual(lam)
    _, p1d = p1_curve(model, lam)
    if f1d > tol and p1d < -tol:
        return "stable"
    if f1d < -tol or p1d > tol:
        return "unstable"
    return "inconclusive"
