import random
from fractions import Fraction
from math import gcd

from conftest import cyc_product
from gl2zeta.cyclo import (
    CycNumber,
    cyclotomic_polynomial,
    divisors,
    _poly_div_exact,
)


def _conj(terms: dict, n: int) -> dict:
    """Complex conjugate (zeta -> zeta^-1) of a {power: coefficient} dict."""
    return {-k % n: c for k, c in terms.items()}


def test_root_of_unity_squares_to_minus_one():
    z2 = CycNumber(4, cyc_product(4, [(1, 1)], [(1, 1)]))
    assert z2 == CycNumber(4, {2: 1})
    assert z2.as_rational() == -1


def test_geometric_sum_vanishes():
    for n in (2, 3, 5, 8, 12):
        total = CycNumber(n, {k: 1 for k in range(n)})
        assert total.is_zero()


def test_conj_symmetric_sum_is_real():
    terms = {1: 1, **_conj({1: 1}, 8)}
    w = CycNumber(8, terms)
    assert w == CycNumber(8, _conj(terms, 8))
    assert abs(w.to_float().imag) < 1e-12


def test_vanishing_cube_root_sum_is_rational_zero():
    v = CycNumber(3, {1: 1, 2: 1, 0: 1})
    assert v.as_rational() == 0


def test_as_rational_irrational_is_none():
    assert CycNumber(8, {1: 1}).as_rational() is None


def test_to_float_i():
    assert abs(CycNumber(4, {1: 1}).to_float() - 1j) < 1e-12


def test_cyclotomic_product_identity():
    # product of Phi_d over d | n is x^n - 1
    for n in range(1, 201):
        poly = [-1] + [0] * (n - 1) + [1]
        for d in divisors(n):
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
        assert poly == [1], n


def test_euler_phi_matches_cyclotomic_degree():
    for n in range(1, 80):
        phi = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert len(cyclotomic_polynomial(n)) - 1 == phi


def test_float_ring_homomorphism_random():
    rng = random.Random(7)
    n = 24
    for _ in range(60):
        a = [(rng.randint(-4, 4), rng.randrange(n)) for _ in range(3)]
        b = [(rng.randint(-4, 4), rng.randrange(n)) for _ in range(3)]
        fa = CycNumber.from_monomials(n, a).to_float()
        fb = CycNumber.from_monomials(n, b).to_float()
        assert abs(CycNumber(n, cyc_product(n, a, b)).to_float() - fa * fb) < 1e-9
        assert abs(CycNumber.from_monomials(n, a + b).to_float() - (fa + fb)) < 1e-9


def test_norm_nonnegative():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.choice([5, 8, 12, 24])
        z = [(rng.randint(-3, 3), rng.randrange(n)) for _ in range(4)]
        zbar = [(c, -k) for c, k in z]
        v = CycNumber(n, cyc_product(n, z, zbar)).to_float()
        assert v.real >= -1e-9
        assert abs(v.imag) < 1e-9


def test_equality_after_reduction_and_hash():
    # zeta_6 = 1 + zeta_6^2 + ... use zeta_6 - zeta_6^2 = 1 relation family:
    # 1 + zeta_3 + zeta_3^2 = 0 so zeta_3 == -1 - zeta_3^2
    a = CycNumber(3, {1: 1})
    b = CycNumber(3, {0: -1, 2: -1})
    assert a == b
    assert hash(a) == hash(b)


def test_rational_scalars():
    z = CycNumber(5, {1: 1})
    assert CycNumber.from_monomials(5, [(Fraction(1, 2), 1), (Fraction(1, 2), 1)]) == z
    assert CycNumber.from_monomials(5, [(1, 1), (-1, 1)]).is_zero()
    assert CycNumber(5, {0: Fraction(3, 4)}).as_rational() == Fraction(3, 4)


def test_coeffs_padded_to_conductor():
    z = CycNumber(8, {1: 1})
    assert len(z.coeffs) == 8
    assert z.coeffs[1] == 1 and not any(z.coeffs[2:])


def test_str_rendering_deterministic():
    z = CycNumber(8, {1: 1, 0: 2})
    assert str(z) == str(CycNumber.from_monomials(8, [(2, 0), (1, 1)]))
    assert str(CycNumber(8, {0: Fraction(3, 4)})) == "3/4"
