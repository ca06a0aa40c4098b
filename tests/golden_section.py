"""The oracle's former lam search steps, kept for swap tests.

* `golden_min`: the width-based golden-section refine.  The oracle now
  refines lam by parabolic interpolation on sigma^2; the tests swap this
  back in to check that both refines find the same eigenvalue.
* `full_scan_bracket`: the argmin over every point of the lam grid.  The
  oracle now walks downhill from lam0 (`_grid_bracket`); the tests swap
  this back in to check that both hand the refine the same bracket, so
  lam keeps its bits.
"""

import math

import numpy as np


def full_scan_bracket(f, grid, start):
    """Index of the lowest f over the whole grid, None on either end."""
    best = int(np.argmin([f(x) for x in grid]))
    return None if best in (0, len(grid) - 1) else best


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
