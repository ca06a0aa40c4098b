"""Width-based golden-section minimiser, the oracle's former lam refine.

The oracle now refines lam by parabolic interpolation on sigma^2; the tests
swap this back in to check that both refines find the same eigenvalue.
"""

import math


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
