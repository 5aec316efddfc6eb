"""Grid scans and bracket refinement for scalar root finding.

Zeros are located by bracketing strict sign changes on a uniform grid and
shrinking each bracket by bisection; :func:`brent_root` refines a bracket
in far fewer evaluations where each one is costly. Tangential zeros
(touching without a sign change) are not detected.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

_EPS = sys.float_info.epsilon


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                flo: float, fhi: float, xtol: float = 1e-12) -> float:
    """Refine a bracketed sign change to ``|hi - lo| < xtol``."""
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("bisect_root requires a sign change")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def brent_root(f: Callable[[float], float], lo: float, hi: float,
               flo: float, fhi: float, xtol: float = 1e-12) -> float:
    """Refine a bracketed sign change by Brent's method.

    Brent's zeroin (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4): inverse quadratic or secant steps, with a
    bisection whenever they would not shrink the bracket fast enough. Stops
    once the bracket around the best iterate is at most ``xtol`` (plus a
    few ulps) wide. The result is always a point where ``f`` was evaluated,
    by this function or, for ``lo`` and ``hi``, by the caller.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("brent_root requires a sign change")
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def find_zeros(f: Callable[[float], float], lo: float, hi: float,
               n: int = 2048, xtol: float = 1e-12,
               f_lo: float | None = None) -> list[float]:
    """All sign-change zeros of ``f`` on ``(lo, hi]`` via an ``n``-point scan."""
    zeros: list[float] = []
    x_prev = lo
    f_prev = f(lo) if f_lo is None else f_lo
    step = (hi - lo) / n
    for k in range(1, n + 1):
        x = lo + k * step if k < n else hi
        fx = f(x)
        if fx == 0.0:
            zeros.append(x)
        elif f_prev != 0.0 and (fx > 0.0) != (f_prev > 0.0):
            zeros.append(bisect_root(f, x_prev, x, f_prev, fx, xtol))
        x_prev, f_prev = x, fx
    return zeros


def expand_upper_bracket(f: Callable[[float], float], lo: float, flo: float,
                         factor: float = 2.0, limit: float = 1e12) -> tuple[float, float]:
    """Grow ``hi`` geometrically from ``lo`` until ``f`` changes sign."""
    hi = lo * factor if lo > 0 else 1.0
    while hi <= limit:
        fhi = f(hi)
        if (fhi > 0.0) != (flo > 0.0) or fhi == 0.0:
            return hi, fhi
        hi *= factor
    raise ValueError(f"no sign change found below {limit:g}")
