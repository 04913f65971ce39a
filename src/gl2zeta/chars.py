"""The quadratic characters of F_q^x and F_{q^2}^x (q odd), as integers ±1.

Every other multiplicative character is an exponent against the fixed
primitive root of its group, read inline where it is used: mu_a(x) =
zeta^(a dlog_F(x) (q+1)) and nu_a(lam) = zeta^(a dlog_E(lam)), zeta a
primitive (q^2-1)-th root of unity.
"""

from __future__ import annotations

from .ffield import ExtField, FieldError


def epsilon_value(ext: ExtField, x: int) -> int:
    """ε(x) as an integer ±1, for x in F_q^x (q odd)."""
    if x == 0:
        raise FieldError("epsilon(0) is undefined")
    return 1 if ext.base.is_square(x) else -1


def epsilon_E_value(ext: ExtField, lam: int) -> int:
    """ε_E(λ) as an integer ±1, for λ in F_{q^2}^x (q odd)."""
    if lam == 0:
        raise FieldError("epsilon_E(0) is undefined")
    if ext.q % 2 == 0:
        raise FieldError("epsilon_E needs q odd")
    return 1 if ext.is_square(lam) else -1
