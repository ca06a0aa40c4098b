"""The two Bessel recurrences `special_functions.bessel_j` ran before its
integer and half-integer orders shared one downward recurrence, kept
verbatim as the bit reference for that loop.

`bessel_j_reference` dispatches between them exactly as `bessel_j` did.
`bessel_j_derivative` is the derivative of the in-repo `bessel_j`, which
only tests take."""

from __future__ import annotations

import math

from rsv.special_functions import bessel_j

_HALF_INT_TOL = 1e-12


def _is_integer(order: float) -> bool:
    return abs(order - round(order)) < _HALF_INT_TOL


def _is_half_integer(order: float) -> bool:
    return abs(order - math.floor(order) - 0.5) < _HALF_INT_TOL


def _besselj_int_miller(nu: int, x: float) -> float:
    # Backward (Miller) recurrence normalized by J0 + 2*sum J_{2k} = 1.
    # Stable for every x > 0; rescaling guards against overflow.
    m = int(max(nu, x)) + 60
    if m % 2:
        m += 1
    jp = 0.0
    j = 1e-30
    norm = 0.0
    out = 0.0
    have = False
    for k in range(m, 0, -1):
        jm = (2.0 * k / x) * j - jp
        jp = j
        j = jm
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            out *= 1e-250
        kk = k - 1
        if kk == nu:
            out = j
            have = True
        if kk > 0 and kk % 2 == 0:
            norm += 2.0 * j
    norm += j  # j now holds the unnormalized J_0
    if not have:
        out = j if nu == 0 else 0.0
    return out / norm


def _spherical_jl(ell: int, x: float) -> float:
    # Spherical Bessel j_l by downward recurrence; normalization picks
    # whichever of j_0, j_1 is farther from a zero.
    if x < 1e-5:
        # j_l(x) ~ x^l/(2l+1)!! * (1 - x^2/(2(2l+3)))
        dfact = 1.0
        for i in range(1, 2 * ell + 2, 2):
            dfact *= i
        return (x**ell / dfact) * (1.0 - x * x / (2.0 * (2 * ell + 3)))
    j0 = math.sin(x) / x
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    if ell == 0:
        return j0
    if ell == 1:
        return j1
    m = int(max(ell, x)) + 60
    jp = 0.0
    j = 1e-30
    out = 0.0
    u0 = 0.0
    u1 = 0.0
    for k in range(m, 0, -1):
        jm = ((2.0 * k + 1.0) / x) * j - jp
        jp = j
        j = jm
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            out *= 1e-250
            u1 *= 1e-250
        kk = k - 1
        if kk == ell:
            out = j
        if kk == 1:
            u1 = j
        if kk == 0:
            u0 = j
    if abs(j0) >= abs(j1):
        scale = j0 / u0
    else:
        scale = j1 / u1
    return out * scale


def bessel_j_reference(order: float, x: float) -> float:
    if order < 0:
        raise ValueError("negative orders not supported")
    if x < 0:
        raise ValueError("negative argument not supported")
    if _is_integer(order):
        nu = int(round(order))
        if x == 0.0:
            return 1.0 if nu == 0 else 0.0
        return _besselj_int_miller(nu, x)
    if _is_half_integer(order):
        ell = int(math.floor(order))
        if x == 0.0:
            return 0.0
        return _spherical_jl(ell, x) * math.sqrt(2.0 * x / math.pi)
    raise ValueError(f"order {order} is neither integer nor half-integer")


def bessel_j_derivative(order: float, x: float) -> float:
    """d/dx J_order(x) via J'_nu = (nu/x) J_nu - J_{nu+1} (x > 0)."""
    if x <= 0:
        raise ValueError("derivative evaluated only for x > 0")
    return (order / x) * bessel_j(order, x) - bessel_j(order + 1.0, x)
