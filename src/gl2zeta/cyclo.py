"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are stored as exact rational combinations of powers of a fixed
primitive n-th root of unity.  A combination whose coefficients are
constant on each Galois orbit {k : gcd(k, n) = d} is rational, and its
value is read off the Ramanujan sums of the orbits (`_orbit_rational`);
every other rationality test, and every equality and zero test, goes
through the canonical representative modulo the n-th cyclotomic
polynomial, so expressions that differ by a vanishing sum of roots of
unity compare equal.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division of integer polynomials, constant coefficient first.
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        assert c % lead == 0
        q = c // lead
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def _orbit_weights(n: int) -> dict[int, tuple[int, int]]:
    """d -> (phi(n/d), mu(n/d)) for every divisor d of n, from one
    factorisation of n: the size of the orbit {k : gcd(k, n) = d} and the
    sum of zeta_n^k over it (a Ramanujan sum)."""
    primes, rest, p = [], n, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    out = {}
    for d in divisors(n):
        m = n // d
        phi, mu = m, 1
        for p in primes:
            if m % p == 0:
                phi = phi // p * (p - 1)
                mu = 0 if m % (p * p) == 0 else -mu
        out[d] = (phi, mu)
    return out


def _orbit_rational(n: int, terms: dict):
    """The value of sum c_k zeta_n^k as a Fraction when c is constant on
    every Galois orbit {k : gcd(k, n) = d}, else None.  Such a sum is
    sum over d of c_d * mu(n/d), with no reduction mod Phi_n."""
    orbits: dict[int, list] = {}
    for k, c in terms.items():
        d = gcd(k, n)
        seen = orbits.get(d)
        if seen is None:
            orbits[d] = [c, 1]
        elif seen[0] != c:
            return None
        else:
            seen[1] += 1
    weights = _orbit_weights(n)
    total = 0
    for d, (c, size) in orbits.items():
        phi, mu = weights[d]
        if size != phi:
            return None
        total += c * mu
    return Fraction(total)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first.

    Computed by dividing x^n - 1 by Phi_d for every proper divisor d.
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates of zeta_n^k, 0 <= k < n, in the basis 1..zeta^(phi(n)-1)."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    rows = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        top = cur[d - 1]
        cur = [0] + cur[: d - 1]
        if top:
            for i in range(d):
                cur[i] -= top * phi[i]
    return tuple(rows)


class CycNumber:
    """An element of Q(zeta_n), as a value: built from monomials, compared,
    hashed, printed and evaluated as a float.  It has no arithmetic
    operators; sums of character values go through `reptheory.monomial_sum`."""

    __slots__ = ("n", "_terms", "_canon_cache")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("conductor must be positive")
        self.n = n
        clean: dict[int, object] = {}
        if terms:
            for k, c in terms.items():
                if c:
                    k %= n
                    nc = clean.get(k, 0) + c
                    if nc:
                        clean[k] = nc
                    elif k in clean:
                        del clean[k]
        self._terms = clean
        self._canon_cache = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_monomials(n: int, pairs) -> "CycNumber":
        acc: dict[int, object] = {}
        for coef, power in pairs:
            if not coef:
                continue
            power %= n
            acc[power] = acc.get(power, 0) + coef
        return CycNumber(n, acc)

    # -- canonical form and predicates ---------------------------------

    def canonical_coeffs(self) -> tuple:
        """Coordinates in the basis 1..zeta^(phi(n)-1), reduced mod Phi_n."""
        if self._canon_cache is None:
            table = _power_table(self.n)
            d = len(table[0])
            vec = [0] * d
            for k, c in self._terms.items():
                row = table[k]
                for i in range(d):
                    if row[i]:
                        vec[i] += c * row[i]
            self._canon_cache = tuple(vec)
        return self._canon_cache

    @property
    def coeffs(self) -> tuple:
        """Canonical coordinates padded to length n."""
        canon = self.canonical_coeffs()
        return canon + (0,) * (self.n - len(canon))

    def is_zero(self) -> bool:
        return not any(self.canonical_coeffs())

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = self.as_rational()
            return r is not None and r == other
        if not isinstance(other, CycNumber):
            return NotImplemented
        if self.n != other.n:
            return False
        return self.canonical_coeffs() == other.canonical_coeffs()

    def __hash__(self):
        return hash((self.n, self.canonical_coeffs()))

    def as_rational(self):
        """The value as a Fraction, or None when it is not rational."""
        if not self._terms.keys() - {0}:  # a constant needs no reduction
            return Fraction(self._terms.get(0, 0))
        r = _orbit_rational(self.n, self._terms)
        if r is not None:
            return r
        canon = self.canonical_coeffs()
        if any(canon[1:]):
            return None
        return Fraction(canon[0])

    def to_float(self) -> complex:
        tau = 2.0 * cmath.pi / self.n
        total = 0j
        for k, c in self._terms.items():
            total += complex(c) * cmath.exp(1j * tau * k)
        return total

    def __repr__(self):
        return f"CycNumber({self.n}, {dict(sorted(self._terms.items()))})"

    def __str__(self):
        r = self.as_rational()
        if r is not None:
            return str(r)
        parts = []
        for i, c in enumerate(self.canonical_coeffs()):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"z{self.n}^{i}")
            elif c == -1:
                parts.append(f"-z{self.n}^{i}")
            else:
                parts.append(f"{c}*z{self.n}^{i}")
        out = "+".join(parts)
        return out.replace("+-", "-")
