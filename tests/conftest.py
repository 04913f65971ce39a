"""Shared, cached contexts and tables (construction is deterministic, so
caching across tests is safe)."""

from dataclasses import dataclass

from gl2zeta import CharacterTable, GLContext, GroupTable, PGLContext

_ctx_cache = {}
_table_cache = {}
_group_cache = {}


def context(group: str, q: int):
    key = (group, q)
    if key not in _ctx_cache:
        _ctx_cache[key] = GLContext(q) if group == "gl" else PGLContext(q)
    return _ctx_cache[key]


def char_table(group: str, q: int) -> CharacterTable:
    key = (group, q)
    if key not in _table_cache:
        _table_cache[key] = CharacterTable(context(group, q))
    return _table_cache[key]


def group_table(group: str, q: int) -> GroupTable:
    key = (group, q)
    if key not in _group_cache:
        _group_cache[key] = GroupTable(context(group, q))
    return _group_cache[key]


def cyc_product(n: int, *factors) -> dict:
    """The product in Q(zeta_n) of factors given as (coefficient, power) pairs,
    as a {power: coefficient} dict; a reference independent of the library's sums."""
    acc = {0: 1}
    for factor in factors:
        nxt = {}
        for k1, c1 in acc.items():
            for c2, k2 in factor:
                k = (k1 + k2) % n
                nxt[k] = nxt.get(k, 0) + c1 * c2
        acc = nxt
    return acc


# -- multiplicative characters as exponents: a reference for the character-sum
# identities and the irrep lists, independent of the library's parameter layer


@dataclass(frozen=True)
class MulChar:
    order: int  # q - 1 (base) or q^2 - 1 (extension)
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % self.order)

    def mul(self, other: "MulChar") -> "MulChar":
        assert self.order == other.order, "characters of different groups"
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


def base_chars(ext) -> list:
    return [MulChar(ext.q - 1, a) for a in range(ext.q - 1)]


def value_power(chi: MulChar, x: int, ext) -> int:
    """Exponent k with chi(x) = zeta^k, zeta the primitive (q^2-1)-th root."""
    q = ext.q
    n = ext.order - 1
    if chi.order == n:
        return (chi.exponent * ext.dlog(x)) % n
    assert chi.order == q - 1, f"character group of order {chi.order} for q = {q}"
    return (chi.exponent * ext.base.dlog(x) * (q + 1)) % n


def is_primitive(nu: MulChar, ext) -> bool:
    """True when nu is not inflated from the base field through the norm."""
    assert nu.order == ext.order - 1, "primitivity is a property of extension characters"
    return nu.exponent % (ext.q + 1) != 0


def enumerate_M(ext) -> list:
    """Orbits {mu, mu^-1} of base characters, mu^2 != 1."""
    n = ext.q - 1
    out = []
    seen = set()
    for a in range(n):
        if (2 * a) % n == 0 or a in seen:  # excludes 1, and epsilon for q odd
            continue
        partner = (-a) % n
        seen.update({a, partner})
        out.append(CharOrbit("M", MulChar(n, a), 1 if partner == a else 2))
    return out


def enumerate_N(ext) -> list:
    """Orbits {nu, nu^-1} of primitive extension characters trivial on F_q^x."""
    n = ext.order - 1
    q = ext.q
    out = []
    seen = set()
    for a in range(0, n, q - 1):  # trivial on F^x  <=>  exponent divisible by q-1
        nu = MulChar(n, a)
        if not is_primitive(nu, ext) or a in seen:
            continue
        partner = (-a) % n  # = a*q mod n on this subgroup
        assert partner == (a * q) % n
        seen.update({a, partner})
        out.append(CharOrbit("N", nu, 1 if partner == a else 2))
    return out
