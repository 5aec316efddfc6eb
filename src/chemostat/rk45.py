"""Adaptive embedded Runge-Kutta 5(4) stepping (Dormand-Prince pair).

Plain-list arithmetic keeps the per-step overhead low for the small systems
integrated here. Step size is governed by a standard PI controller on the
scaled error norm; a collapse of the step size below ``MIN_STEP`` raises
:class:`StiffnessError` instead of silently losing accuracy.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

RHS = Callable[[float, Sequence[float]], Sequence[float]]

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
ALPHA = 0.7 / 5.0  # PI controller: proportional exponent
BETA = 0.4 / 5.0   # PI controller: integral exponent
MIN_STEP = 1e-14

# Dense-output weights of the Dormand-Prince pair (as in Hairer's DOPRI5).
_D1 = -12715105075 / 11282082432
_D3 = 87487479700 / 32700410799
_D4 = -10690763975 / 1880347072
_D5 = 701980252875 / 199316789632
_D6 = -1453857185 / 822651844
_D7 = 69997945 / 29380423


class StiffnessError(RuntimeError):
    """Step size collapsed; the problem is too stiff for an explicit pair."""

    def __init__(self, t: float, state: list[float]):
        super().__init__(f"step size underflow at t={t!r}; last state {state!r}")
        self.t = t
        self.state = state


def _stages(f: RHS, t: float, y: Sequence[float], h: float, k1: Sequence[float]):
    """One Dormand-Prince step from ``(t, y)`` given ``k1 = f(t, y)``.

    Returns the fifth-order solution, the embedded error estimate and the
    stages ``(k1, k3, k4, k5, k6, k7)`` the dense output needs; ``k7`` is
    ``f(t + h, y5)``, the first stage of the next step.
    """
    k2 = f(t + h * 0.2,
           [yi + h * 0.2 * a for yi, a in zip(y, k1)])
    k3 = f(t + h * 0.3,
           [yi + h * (0.075 * a + 0.225 * b) for yi, a, b in zip(y, k1, k2)])
    k4 = f(t + h * 0.8,
           [yi + h * (44 / 45 * a - 56 / 15 * b + 32 / 9 * c)
            for yi, a, b, c in zip(y, k1, k2, k3)])
    k5 = f(t + h * (8 / 9),
           [yi + h * (19372 / 6561 * a - 25360 / 2187 * b
                      + 64448 / 6561 * c - 212 / 729 * d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = f(t + h,
           [yi + h * (9017 / 3168 * a - 355 / 33 * b + 46732 / 5247 * c
                      + 49 / 176 * d - 5103 / 18656 * e)
            for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y5 = [yi + h * (35 / 384 * a + 500 / 1113 * c + 125 / 192 * d
                    - 2187 / 6784 * e + 11 / 84 * g)
          for yi, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
    k7 = f(t + h, y5)
    err = [h * (71 / 57600 * a - 71 / 16695 * c + 71 / 1920 * d
                - 17253 / 339200 * e + 22 / 525 * g - 0.025 * q)
           for a, c, d, e, g, q in zip(k1, k3, k4, k5, k6, k7)]
    return y5, err, (k1, k3, k4, k5, k6, k7)


def fixed_step(f: RHS, t: float, y: Sequence[float], h: float) -> list[float]:
    """One fifth-order step of size ``h`` with no error control."""
    return _stages(f, t, y, h, f(t, y))[0]


class DormandPrince54:
    """Stateful adaptive stepper; drive it with :meth:`step`.

    The pair is "first same as last": the last stage of an accepted step is
    ``f`` at the new state, so it serves as the first stage of the next step
    and of every rejected retry. The reuse holds only while ``t`` and ``y``
    are what that step produced; a caller may edit ``y`` in place (as the
    clamp in :func:`~chemostat.dynamics.integrate` does), and the first
    stage is then evaluated afresh.
    """

    def __init__(self, f: RHS, t0: float, y0: Sequence[float], *,
                 rtol: float = 1e-8, atol: float = 1e-10,
                 max_step: float = math.inf, first_step: float | None = None):
        self.f = f
        self.t = t0
        self.y = list(map(float, y0))
        self.t_prev = t0
        self.y_prev = list(self.y)
        self.rtol = rtol
        self.atol = atol
        self.max_step = max_step
        self.n_accepted = 0
        self.n_rejected = 0
        self.max_error = 0.0
        self._err_prev = 1.0
        self._fsal = None  # (t, copy of y, f(t, y))
        self._last_step = None  # (h, stages) of the last accepted step
        self.h = first_step if first_step is not None else self._initial_step()

    def _scaled_norm(self, err, y_old, y_new) -> float:
        acc = 0.0
        for e, a, b in zip(err, y_old, y_new):
            sc = self.atol + self.rtol * max(abs(a), abs(b))
            acc += (e / sc) ** 2
        return math.sqrt(acc / len(err))

    def _first_stage(self) -> Sequence[float]:
        fsal = self._fsal
        if fsal is not None and fsal[0] == self.t and fsal[1] == self.y:
            return fsal[2]
        k1 = self.f(self.t, self.y)
        self._fsal = (self.t, list(self.y), k1)
        return k1

    def _initial_step(self) -> float:
        f0 = self._first_stage()
        scale = [self.atol + self.rtol * abs(v) for v in self.y]
        d0 = math.sqrt(sum((v / s) ** 2 for v, s in zip(self.y, scale)) / len(scale))
        d1 = math.sqrt(sum((v / s) ** 2 for v, s in zip(f0, scale)) / len(scale))
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        y1 = [v + h0 * g for v, g in zip(self.y, f0)]
        f1 = self.f(self.t + h0, y1)
        d2 = math.sqrt(sum(((a - b) / s) ** 2
                           for a, b, s in zip(f1, f0, scale)) / len(scale)) / h0
        big = max(d1, d2)
        h1 = max(1e-6, h0 * 1e-3) if big <= 1e-15 else (0.01 / big) ** 0.2
        return min(100.0 * h0, h1, self.max_step)

    def step(self, t_limit: float) -> bool:
        """Advance one accepted step, not beyond ``t_limit``.

        Returns False when already at the limit. Raises
        :class:`StiffnessError` if the step size underflows.
        """
        if self.t >= t_limit:
            return False
        while True:
            h = min(self.h, self.max_step, t_limit - self.t)
            if h < MIN_STEP:
                raise StiffnessError(self.t, list(self.y))
            y5, err_vec, stages = _stages(self.f, self.t, self.y, h,
                                          self._first_stage())
            err = self._scaled_norm(err_vec, self.y, y5)
            if err <= 1.0:
                self.t_prev, self.y_prev = self.t, self.y
                self.t, self.y = self.t + h, y5
                self._fsal = (self.t, list(y5), stages[-1])
                self._last_step = (h, stages)
                self.n_accepted += 1
                if err > self.max_error:
                    self.max_error = err
                if err == 0.0:
                    fac = MAX_FACTOR
                else:
                    fac = min(MAX_FACTOR, max(
                        MIN_FACTOR,
                        SAFETY * err ** -ALPHA * self._err_prev ** BETA))
                self.h = h * fac
                self._err_prev = max(err, 1e-4)
                return True
            self.n_rejected += 1
            self.h = h * max(MIN_FACTOR, min(1.0, SAFETY * err ** -0.2))

    def dense_output(self) -> Callable[[float], list[float]]:
        """The state as a function of ``t`` over the last accepted step.

        Evaluates the fourth-order continuous extension of Dormand and
        Prince (Hairer, Norsett & Wanner, *Solving ODEs I*, section II.6)
        on ``[t_prev, t]`` from the step's stages, with no calls of ``f``.
        It equals ``y_prev`` at ``t_prev`` and ``y`` at ``t`` up to
        rounding.
        """
        t0 = self.t_prev
        h, stages = self._last_step
        coeffs = []
        for y0, y1, a, c, d, e, g, q in zip(self.y_prev, self.y, *stages):
            dy = y1 - y0
            b = h * a - dy
            coeffs.append((y0, dy, b, dy - h * q - b,
                           h * (_D1 * a + _D3 * c + _D4 * d + _D5 * e
                                + _D6 * g + _D7 * q)))

        def state(t: float) -> list[float]:
            s = (t - t0) / h
            r = 1.0 - s
            return [y0 + s * (dy + r * (b + s * (c4 + r * c5)))
                    for y0, dy, b, c4, c5 in coeffs]

        return state
