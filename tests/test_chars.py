from fractions import Fraction

import pytest

from conftest import (
    MulChar,
    base_chars,
    char_table,
    enumerate_M,
    enumerate_N,
    is_primitive,
    value_power,
)
from gl2zeta import chars
from gl2zeta.cyclo import CycNumber
from gl2zeta.ffield import build_extension, build_field, prime_power

IDENTITY_QS = [3, 4, 5, 7, 8, 9]


def ext(q):
    p, e = prime_power(q)
    return build_extension(build_field(p, e))


def value(chi, x, E):
    """chi(x) in Q(zeta_n), n = q^2 - 1."""
    return CycNumber(E.order - 1, {value_power(chi, x, E): 1})


def test_char_counts():
    E = ext(3)
    assert len(base_chars(E)) == 2  # {1, eps}
    assert len(base_chars(ext(2))) == 1  # trivial group


def test_char_group_closure():
    E = ext(4)
    cs = base_chars(E)
    assert {a.mul(b) for a in cs for b in cs} == set(cs)
    assert {a.inv() for a in cs} == set(cs)


def test_primitivity():
    E = ext(3)
    assert not is_primitive(MulChar(8, 0), E)
    assert is_primitive(MulChar(8, 1), E)
    assert not is_primitive(MulChar(8, 4), E)  # q+1 = 4 divides 4
    # primitive <=> not a norm inflation
    inflated = {mu.exponent * (E.q + 1) % 8 for mu in base_chars(E)}
    for a in range(8):
        assert is_primitive(MulChar(8, a), E) == (a not in inflated)


def restrict(nu, E):
    """nu restricted to F_q^x: the exponent mod q - 1 (N(G) = g)."""
    return MulChar(E.q - 1, nu.exponent)


def test_restriction():
    E = ext(3)
    # odd exponents restrict to the quadratic character: nu(-1) = -1
    for a in range(8):
        assert value(MulChar(8, a), E.embed(2), E).as_rational() == (-1) ** a
    # restriction of a norm inflation mu o N (exponent times q+1) is the square
    for q in (3, 5, 7):
        Eq = ext(q)
        for mu in base_chars(Eq):
            inflated = MulChar(Eq.order - 1, mu.exponent * (q + 1))
            assert restrict(inflated, Eq) == mu.pow(2)


def test_restriction_pointwise():
    for q in (3, 4, 5):
        E = ext(q)
        for nu in (MulChar(E.order - 1, a) for a in range(E.order - 1)):
            mu = restrict(nu, E)
            for x in range(1, q):
                assert value_power(nu, E.embed(x), E) == value_power(
                    mu, x, E
                )


def test_quadratic_char():
    E = ext(3)
    eps = MulChar(2, 1)  # the order-2 character of F_3^x
    assert value(eps, 1, E).as_rational() == 1
    assert value(eps, 2, E).as_rational() == -1  # 2 is not a square mod 3
    assert chars.epsilon_value(E, 2) == -1


def test_epsilon_E():
    for q in (3, 5, 7, 9):
        E = ext(q)
        epsE = MulChar(E.order - 1, (E.order - 1) // 2)  # the order-2 character
        # trivial on the base field: every base element is a square upstairs
        for x in range(1, q):
            assert value(epsE, E.embed(x), E).as_rational() == 1
            assert chars.epsilon_E_value(E, E.embed(x)) == 1
        # matches square-ness and the quadratic character of the norm
        for lam in E.elements():
            if lam == 0:
                continue
            v = value(epsE, lam, E).as_rational()
            assert v == chars.epsilon_E_value(E, lam)
            assert v == (1 if E.is_square(lam) else -1)
            assert v == chars.epsilon_value(E, E.norm(lam))


@pytest.mark.parametrize("q,m,n", [(2, 0, 1), (3, 0, 1), (4, 1, 2), (5, 1, 2),
                                   (7, 2, 3), (8, 3, 4), (9, 3, 4)])
def test_orbit_counts(q, m, n):
    E = ext(q)
    M = enumerate_M(E)
    N = enumerate_N(E)
    assert len(M) == m
    assert len(N) == n
    for o in M + N:
        assert o.size == 2
    # N-orbit members are primitive, trivial on the base field, nu^q = nu^-1
    ne = E.order - 1
    for o in N:
        a = o.rep.exponent
        assert is_primitive(o.rep, E)
        assert restrict(o.rep, E).exponent == 0
        assert (a * q) % ne == (-a) % ne
    # the PGL principal and cuspidal parameters are these orbit representatives
    T = char_table("pgl", q)
    for kind, orbits in (("principal", M), ("cuspidal", N)):
        assert [pi.params[0] for pi in T.irreps if pi.kind == kind] == [
            o.rep.exponent for o in orbits
        ]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_base_orthogonality(q):
    E = ext(q)
    ne = E.order - 1
    for x in range(1, q):
        total = CycNumber.from_monomials(
            ne, [(1, value_power(mu, x, E)) for mu in base_chars(E)]
        )
        assert total.as_rational() == ((q - 1) if x == 1 else 0)


@pytest.mark.parametrize("q", IDENTITY_QS)
def test_pair_sum_identity(q):
    E = ext(q)
    F = E.base
    ne = E.order - 1
    bc = base_chars(E)
    for x in range(1, q):
        monos = []
        for i in range(len(bc)):
            for j in range(i + 1, len(bc)):
                monos.append((1, value_power(bc[i].mul(bc[j]), x, E)))
        got = CycNumber.from_monomials(ne, monos).as_rational()
        want = Fraction((q - 1) ** 2, 2) * (x == 1) - Fraction(q - 1, 2) * (
            F.mul(x, x) == 1
        )
        assert got == want


@pytest.mark.parametrize("q", IDENTITY_QS)
def test_galois_orbit_sum_identity(q):
    E = ext(q)
    F = E.base
    ne = E.order - 1
    orbits = []
    seen = set()
    for a in range(ne):
        nu = MulChar(ne, a)
        if not is_primitive(nu, E) or a in seen:
            continue
        seen.update({a, (a * q) % ne})
        orbits.append(nu)
    assert len(orbits) == q * (q - 1) // 2
    for x in range(1, q):
        got = CycNumber.from_monomials(
            ne, [(1, value_power(nu, E.embed(x), E)) for nu in orbits]
        ).as_rational()
        want = Fraction(q * q - 1, 2) * (x == 1) - Fraction(q - 1, 2) * (
            F.mul(x, x) == 1
        )
        assert got == want


@pytest.mark.parametrize("q", IDENTITY_QS)
def test_cuspidal_restriction_identity(q):
    E = ext(q)
    ne = E.order - 1
    N = enumerate_N(E)
    for lam in E.elements():
        if lam == 0:
            continue
        monos = []
        for o in N:
            monos.append((1, value_power(o.rep, lam, E)))
            monos.append((1, value_power(o.rep, E.frobenius(lam), E)))
        got = CycNumber.from_monomials(ne, monos).as_rational()
        want = (q + 1) * E.in_base(lam) - 1
        if q % 2:
            want -= chars.epsilon_E_value(E, lam)
        assert got == want
