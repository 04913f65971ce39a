"""Multiplicative characters of F_q^x and F_{q^2}^x.

A character is stored as an exponent against the fixed primitive root of
its group; values are roots of unity in the common conductor q^2 - 1.
Because the extension generator G satisfies N(G) = g, restriction to the
base field is literally reduction of the exponent mod q - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ffield import ExtField, FieldError


@dataclass(frozen=True)
class MulChar:
    order: int  # q - 1 (base) or q^2 - 1 (extension)
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % self.order)

    def mul(self, other: "MulChar") -> "MulChar":
        if self.order != other.order:
            raise ValueError("characters of different groups")
        return MulChar(self.order, self.exponent + other.exponent)

    def inv(self) -> "MulChar":
        return MulChar(self.order, -self.exponent)

    def pow(self, n: int) -> "MulChar":
        return MulChar(self.order, self.exponent * n)


@dataclass(frozen=True)
class CharOrbit:
    kind: str  # "M" | "N"
    rep: MulChar
    size: int


def base_chars(ext: ExtField) -> list[MulChar]:
    return [MulChar(ext.q - 1, a) for a in range(ext.q - 1)]


def value_power(chi: MulChar, x: int, ext: ExtField) -> int:
    """Exponent k with chi(x) = zeta^k, zeta the primitive (q^2-1)-th root."""
    q = ext.q
    n = ext.order - 1
    if chi.order == n:
        return (chi.exponent * ext.dlog(x)) % n
    if chi.order == q - 1:
        return (chi.exponent * ext.base.dlog(x) * (q + 1)) % n
    raise ValueError(f"character group of order {chi.order} does not match q = {q}")


def is_primitive(nu: MulChar, ext: ExtField) -> bool:
    """True when nu is not inflated from the base field through the norm."""
    if nu.order != ext.order - 1:
        raise ValueError("primitivity is a property of extension characters")
    return nu.exponent % (ext.q + 1) != 0


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


def enumerate_M(ext: ExtField) -> list[CharOrbit]:
    """Orbits {mu, mu^-1} of base characters, mu^2 != 1."""
    n = ext.q - 1
    out = []
    seen = set()
    for a in range(n):
        mu = MulChar(n, a)
        if (2 * a) % n == 0:  # excludes 1, and epsilon for q odd
            continue
        if a in seen:
            continue
        partner = (-a) % n
        seen.update({a, partner})
        out.append(CharOrbit("M", mu, 1 if partner == a else 2))
    return out


def enumerate_N(ext: ExtField) -> list[CharOrbit]:
    """Orbits {nu, nu^-1} of primitive extension characters trivial on F_q^x."""
    n = ext.order - 1
    q = ext.q
    out = []
    seen = set()
    for a in range(0, n, q - 1):  # trivial on F^x  <=>  exponent divisible by q-1
        nu = MulChar(n, a)
        if not is_primitive(nu, ext):
            continue
        if a in seen:
            continue
        partner = (-a) % n  # = a*q mod n on this subgroup
        assert partner == (a * q) % n
        seen.update({a, partner})
        out.append(CharOrbit("N", nu, 1 if partner == a else 2))
    return out
