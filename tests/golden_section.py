"""The oracle's former lam search steps, kept for swap tests.

The oracle now finds lam as the root of the slope of sigma^2 by secant
steps (`_slope_root`).  The tests swap these back in, as a full scan of
sigma followed by one of two refines, to check that the secant lands on the
same eigenvalue:

* `full_scan_bracket`: the argmin over every point of the lam grid.
* `sigma_sq_min`: the former parabolic refine on sigma^2, which ends at a
  vertex to rounding.
* `golden_min`: the width-based golden-section refine, whose answer the
  rounding of sigma limits.
"""

import math

import numpy as np


def full_scan_bracket(f, grid, start):
    """Index of the lowest f over the whole grid, None on either end."""
    best = int(np.argmin([f(x) for x in grid]))
    return None if best in (0, len(grid) - 1) else best


def sigma_sq_min(f, a: float, m: float, b: float, spacing: float, steps: int = 8) -> float:
    """Minimiser of sigma = f on [a, b], given f(m) below f(a) and f(b).

    Near a simple eigenvalue sigma^2 is the parabola
    c^2 (lam - lam*)^2 + floor^2.  From x = m, each step moves x to the
    vertex of the parabola through x, x + h and x + 2h, h = `spacing`
    towards the larger side of [a, b]; the answer is the vertex of the
    first step no longer than `spacing`."""

    def g(x: float) -> float:
        return f(x) ** 2

    if not g(m) < min(g(a), g(b)):
        raise ArithmeticError(f"sigma has no interior minimum in [{a!r}, {b!r}]")
    x = m
    for _ in range(steps):
        h = spacing if b - x > x - a else -spacing
        g0, g1, g2 = g(x), g(x + h), g(x + 2.0 * h)
        second = g2 - 2.0 * g1 + g0
        if not second > 0.0:
            raise ArithmeticError(f"sigma^2 is not convex near lam = {x!r}")
        last, x = x, x + h * (0.5 - (g1 - g0) / second)
        if not a <= x <= b:
            raise ArithmeticError(f"sigma^2 vertex {x!r} left [{a!r}, {b!r}]")
        if abs(x - last) <= spacing:
            return float(x)
    raise ArithmeticError(f"sigma^2 vertex did not settle near lam = {x!r}")


def golden_min(f, a: float, b: float, xtol: float, maxiter: int = 200) -> float:
    """Abscissa of the minimum of f on [a, b] to bracket width xtol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = f(c), f(e)
    for _ in range(maxiter):
        if b - a <= xtol:
            break
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = f(e)
    return c if fc < fe else e
