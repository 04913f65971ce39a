"""F_q (q = p^e) and its quadratic extension F_{q^2}, table-backed.

Elements of F_q are ints in [0, q) encoding polynomial coordinates over
F_p, constant coefficient first: x = c0 + c1*p + ... + c_{e-1}*p^(e-1).
Elements of the extension are ints in [0, q^2) encoding a + b*delta
(q odd) or a + b*omega (q even) as a*q + b.

All arithmetic is precomputed once per context: exp/dlog tables for
multiplication and, for e > 1, a Zech-logarithm table for addition,
zech[k] = dlog(1 + g^k), so that g^a + g^b = g^(a + zech[b - a]).  After
construction every operation is O(1).  Contexts are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

Q_CAP = 1 << 20


class FieldError(ValueError):
    pass


class CapExceeded(RuntimeError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


# -- polynomial helpers over F_p (coefficient lists, constant first) ------


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    a = [c % p for c in a]
    df = len(f) - 1
    inv_lead = pow(f[-1], -1, p)
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            q = (c * inv_lead) % p
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - q * f[j]) % p
    a = a[:df]
    while len(a) < df:
        a.append(0)
    return a


def _pmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pmod(out, f, p)


def _ppowmod(a: list[int], n: int, f: list[int], p: int) -> list[int]:
    result = _pmod([1], f, p)
    base = _pmod(list(a), f, p)
    while n:
        if n & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        n >>= 1
    return result


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim([c % p for c in a]), trim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        r = list(a)
        for i in range(len(r) - 1, len(b) - 2, -1):
            c = r[i]
            if c:
                q = (c * inv) % p
                for j in range(len(b)):
                    r[i - len(b) + 1 + j] = (r[i - len(b) + 1 + j] - q * b[j]) % p
        a, b = b, trim(r)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    # Rabin's test: x^(p^e) == x mod f, and gcd(x^(p^(e/l)) - x, f) = 1
    # for every prime l dividing e.
    e = len(f) - 1
    x = [0, 1]
    xq = _ppowmod(x, p**e, f, p)
    diff = [(a - b) % p for a, b in zip(xq + [0] * 2, x + [0] * e)][: max(len(xq), 2)]
    if any(diff):
        return False
    for ell in _prime_factors(e):
        m = e // ell
        xm = _ppowmod(x, p**m, f, p)
        d = [(a - b) % p for a, b in zip(xm + [0] * 2, x + [0] * e)][: max(len(xm), 2)]
        g = _pgcd(d, f, p)
        if len(g) != 1:
            return False
    return True


class Field:
    """The finite field F_q with q = p^e."""

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if e < 1:
            raise FieldError(f"exponent e = {e} must be >= 1")
        q = p**e
        if q > Q_CAP:
            raise CapExceeded(f"q = {q} exceeds the field cap {Q_CAP}")
        self.p = p
        self.e = e
        self.q = q
        self.modpoly = self._find_modpoly() if e > 1 else (0, 1)
        # elements in canonical order: lexicographic on (c0, .., c_{e-1})
        self._canonical = [self.encode(c) for c in product(range(p), repeat=e)]
        self.g = self._find_primitive_root()
        exp = [1]
        for _ in range(q - 2):
            exp.append(self._mul_poly(exp[-1], self.g))
        assert len(set(exp)) == q - 1, "primitive root does not have full order"
        self._exp = exp
        dlog = [-1] * q
        for i, x in enumerate(exp):
            dlog[x] = i
        self._dlog = dlog
        if e > 1:
            # zech[k] = dlog(1 + g^k), None where 1 + g^k = 0; adding 1 to a
            # coefficient vector changes only its constant coefficient x mod p
            one_plus = [x - x % p + (x + 1) % p for x in exp]
            self._zech = [dlog[t] if t else None for t in one_plus]

    # -- encoding ------------------------------------------------------

    def coeffs(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.e):
            x, r = divmod(x, self.p)
            out.append(r)
        return tuple(out)

    def encode(self, coeffs) -> int:
        x = 0
        for c in reversed(tuple(coeffs)):
            x = x * self.p + c
        return x

    def elements(self) -> list[int]:
        """All elements in canonical order."""
        return list(self._canonical)

    # -- construction-time arithmetic -----------------------------------

    def _find_modpoly(self) -> tuple[int, ...]:
        # lexicographically smallest irreducible monic polynomial,
        # coefficients read constant-first
        for tail in product(range(self.p), repeat=self.e):
            f = list(tail) + [1]
            if _is_irreducible(f, self.p):
                return tuple(f)
        raise AssertionError("no irreducible polynomial found")

    def _mul_poly(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x * y) % self.p
        out = _pmulmod(list(self.coeffs(x)), list(self.coeffs(y)), list(self.modpoly), self.p)
        return self.encode(out)

    def _pow_poly(self, x: int, n: int) -> int:
        r = 1
        b = x
        while n:
            if n & 1:
                r = self._mul_poly(r, b)
            b = self._mul_poly(b, b)
            n >>= 1
        return r

    def _find_primitive_root(self) -> int:
        n = self.q - 1
        if n == 1:
            return 1
        facs = _prime_factors(n)
        for x in self._canonical:
            if x == 0:
                continue
            if all(self._pow_poly(x, n // ell) != 1 for ell in facs):
                return x
        raise AssertionError("no primitive root found")

    # -- table-backed arithmetic ----------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x + y) % self.p
        if x == 0 or y == 0:
            return x + y
        a = self._dlog[x]
        z = self._zech[(self._dlog[y] - a) % (self.q - 1)]
        return 0 if z is None else self._exp[(a + z) % (self.q - 1)]

    def neg(self, x: int) -> int:
        if self.e == 1:
            return (-x) % self.p
        if x == 0 or self.p == 2:
            return x
        # -1 = g^((q-1)/2) for odd p
        return self._exp[(self._dlog[x] + (self.q - 1) // 2) % (self.q - 1)]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[(self._dlog[x] + self._dlog[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[(-self._dlog[x]) % (self.q - 1)]

    def pow(self, x: int, n: int) -> int:
        if x == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of 0")
            return 0 if n else 1
        return self._exp[(self._dlog[x] * n) % (self.q - 1)]

    def dlog(self, x: int) -> int:
        if x == 0:
            raise FieldError("dlog(0) is undefined")
        return self._dlog[x]

    def from_dlog(self, k: int) -> int:
        return self._exp[k % (self.q - 1)]

    def is_square(self, x: int) -> bool:
        if x == 0:
            return True
        if self.q % 2 == 0:
            return True
        return self._dlog[x] % 2 == 0

    def sqrt(self, x: int) -> int:
        if x == 0:
            return 0
        if self.q % 2 == 0:
            return self.pow(x, self.q // 2)
        k = self._dlog[x]
        if k % 2:
            raise FieldError(f"{x} is not a square in F_{self.q}")
        return self._exp[k // 2]

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e})"


class ExtField:
    """The quadratic extension F_{q^2} of a base Field.

    q odd:  basis {1, delta} with delta^2 = Delta, the smallest non-square.
    q even: basis {1, omega} with omega^2 = omega + Omega, Omega the
            smallest element outside the image of x -> x^2 + x.
    The fixed primitive root G is the smallest (canonical element order)
    generator of the multiplicative group whose norm equals the base
    field's primitive root g, which makes character restriction a plain
    reduction of exponents mod q-1.
    """

    def __init__(self, base: Field):
        self.base = base
        q = base.q
        if q * q > Q_CAP:
            raise CapExceeded(f"q^2 = {q * q} exceeds the extension cap {Q_CAP}")
        self.q = q
        self.order = q * q
        if q % 2:
            self.delta_sq = self._smallest_nonsquare()
            self.artin_c = None
        else:
            self.delta_sq = None
            self.artin_c = self._smallest_outside_artin_schreier()
        self.delta = self.pack(0, 1)
        self.G = self._find_primitive_root()
        exp = [self.pack(1, 0)]
        for _ in range(self.order - 2):
            exp.append(self._mul_raw(exp[-1], self.G))
        assert len(set(exp)) == self.order - 1
        self._exp = exp
        dlog = [-1] * self.order
        for i, lam in enumerate(exp):
            dlog[lam] = i
        self._dlog = dlog
        assert self._dlog[self.embed(base.g)] % (self.order - 1) == (q + 1) % (
            self.order - 1
        ), "norm-compatible generator bookkeeping"
        # the character table reads dlog_F(N lam) = dlog_E(lam) mod q-1 and
        # dlog_E(lam^q) = q*dlog_E(lam) off these two facts
        assert self.norm(self.G) == base.g and self.frobenius(self.G) == exp[q], (
            "generator norm and Frobenius"
        )

    # -- encoding ------------------------------------------------------

    def pack(self, a: int, b: int) -> int:
        return a * self.q + b

    def unpack(self, lam: int) -> tuple[int, int]:
        return divmod(lam, self.q)

    def embed(self, x: int) -> int:
        return x * self.q

    def in_base(self, lam: int) -> bool:
        return lam % self.q == 0

    def elements(self) -> list[int]:
        base_order = self.base.elements()
        return [self.pack(a, b) for a in base_order for b in base_order]

    # -- defining constants ---------------------------------------------

    def _smallest_nonsquare(self) -> int:
        for x in self.base.elements():
            if x != 0 and not self.base.is_square(x):
                return x
        raise AssertionError("no non-square found (is q even?)")

    def _smallest_outside_artin_schreier(self) -> int:
        F = self.base
        image = {F.add(F.mul(x, x), x) for x in F.elements()}
        assert len(image) == F.q // 2
        for x in F.elements():
            if x not in image:
                return x
        raise AssertionError("Artin-Schreier map is surjective?")

    # -- raw arithmetic ---------------------------------------------------

    def add(self, l1: int, l2: int) -> int:
        F = self.base
        a1, b1 = self.unpack(l1)
        a2, b2 = self.unpack(l2)
        return self.pack(F.add(a1, a2), F.add(b1, b2))

    def neg(self, lam: int) -> int:
        F = self.base
        a, b = self.unpack(lam)
        return self.pack(F.neg(a), F.neg(b))

    def sub(self, l1: int, l2: int) -> int:
        return self.add(l1, self.neg(l2))

    def _mul_raw(self, l1: int, l2: int) -> int:
        F = self.base
        a, b = self.unpack(l1)
        c, d = self.unpack(l2)
        if self.q % 2:
            # (a + b*delta)(c + d*delta) = ac + bd*Delta + (ad + bc)*delta
            re = F.add(F.mul(a, c), F.mul(F.mul(b, d), self.delta_sq))
            im = F.add(F.mul(a, d), F.mul(b, c))
        else:
            # omega^2 = omega + Omega
            bd = F.mul(b, d)
            re = F.add(F.mul(a, c), F.mul(bd, self.artin_c))
            im = F.add(F.add(F.mul(a, d), F.mul(b, c)), bd)
        return self.pack(re, im)

    def mul(self, l1: int, l2: int) -> int:
        if l1 == 0 or l2 == 0:
            return 0
        return self._exp[(self._dlog[l1] + self._dlog[l2]) % (self.order - 1)]

    def inv(self, lam: int) -> int:
        if lam == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[(-self._dlog[lam]) % (self.order - 1)]

    def pow(self, lam: int, n: int) -> int:
        if lam == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of 0")
            return 0 if n else self.pack(1, 0)
        return self._exp[(self._dlog[lam] * n) % (self.order - 1)]

    def _pow_raw(self, lam: int, n: int) -> int:
        r = self.pack(1, 0)
        b = lam
        while n:
            if n & 1:
                r = self._mul_raw(r, b)
            b = self._mul_raw(b, b)
            n >>= 1
        return r

    # -- Galois structure -------------------------------------------------

    def frobenius(self, lam: int) -> int:
        F = self.base
        a, b = self.unpack(lam)
        if self.q % 2:
            return self.pack(a, F.neg(b))
        return self.pack(F.add(a, b), b)

    def norm(self, lam: int) -> int:
        F = self.base
        a, b = self.unpack(lam)
        if self.q % 2:
            return F.sub(F.mul(a, a), F.mul(F.mul(b, b), self.delta_sq))
        return F.add(F.add(F.mul(a, a), F.mul(a, b)), F.mul(F.mul(b, b), self.artin_c))

    def trace(self, lam: int) -> int:
        F = self.base
        a, b = self.unpack(lam)
        if self.q % 2:
            return F.add(a, a)
        return b

    def _find_primitive_root(self) -> int:
        n = self.order - 1
        facs = _prime_factors(n)
        g = self.base.g
        for a in self.base.elements():
            for b in self.base.elements():
                lam = self.pack(a, b)
                if lam == 0 or self.norm(lam) != g:
                    continue
                if all(self._pow_raw(lam, n // ell) != self.pack(1, 0) for ell in facs):
                    return lam
        raise AssertionError("no norm-compatible primitive root found")

    def dlog(self, lam: int) -> int:
        if lam == 0:
            raise FieldError("dlog(0) is undefined")
        return self._dlog[lam]

    def from_dlog(self, k: int) -> int:
        return self._exp[k % (self.order - 1)]

    def is_square(self, lam: int) -> bool:
        if lam == 0:
            return True
        if self.q % 2 == 0:
            return True
        return self._dlog[lam] % 2 == 0

    def __repr__(self):
        return f"ExtField(q={self.q})"


def build_field(p: int, e: int = 1) -> Field:
    """Construct F_q for q = p^e (deterministic canonical choices)."""
    return Field(p, e)


def build_extension(field: Field) -> ExtField:
    """Construct F_{q^2} over an existing F_q context."""
    return ExtField(field)


@lru_cache(maxsize=None)
def prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, e) or raise FieldError when q is not a prime power."""
    if q < 2:
        raise FieldError(f"q = {q} is not a prime power")
    for p in _prime_factors(q):
        e = 0
        m = q
        while m % p == 0:
            m //= p
            e += 1
        if m == 1:
            return (p, e)
    raise FieldError(f"q = {q} is not a prime power")
