"""Small derivative-free search helpers: golden-section and coordinate ascent."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-6) -> tuple[float, float]:
    """Maximize f on [lo, hi] assuming unimodality; returns (argmax, value).

    Stops when the bracket is within tol, or when its interior points no
    longer fall strictly inside it: far from 0 one ulp can exceed tol."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol and a < c < d < b:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def coordinate_ascent(f: Callable[[Sequence[float]], float],
                      bounds: Sequence[tuple[float, float]],
                      start: Sequence[float],
                      tol: float = 1e-6,
                      max_sweeps: int = 80) -> tuple[tuple[float, ...], float]:
    """Cyclic coordinate ascent with golden-section line searches.

    Stops when no coordinate moved more than tol in a full sweep.
    """
    x = [float(v) for v in start]
    for _ in range(max_sweeps):
        moved = 0.0
        for i, (lo, hi) in enumerate(bounds):

            def axis(t: float, i: int = i) -> float:
                y = list(x)
                y[i] = t
                return f(y)

            xi, _ = golden_section_max(axis, lo, hi, tol)
            moved = max(moved, abs(xi - x[i]))
            x[i] = xi
        if moved <= tol:
            break
    return tuple(x), f(x)


def multi_start_ascent(f: Callable[[Sequence[float]], float],
                       bounds: Sequence[tuple[float, float]],
                       starts: Sequence[Sequence[float]],
                       tol: float = 1e-6) -> tuple[tuple[float, ...], float]:
    """Run coordinate ascent from every start and keep the best finisher."""
    best_x: tuple[float, ...] | None = None
    best_v = -math.inf
    for start in starts:
        x, v = coordinate_ascent(f, bounds, start, tol)
        if v > best_v:
            best_x, best_v = x, v
    assert best_x is not None
    return best_x, best_v
