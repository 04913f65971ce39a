import random
from fractions import Fraction

import pytest

from gl2zeta.cyclo import (
    CycNumber,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    root_of_unity,
    _poly_div_exact,
)


def test_root_of_unity_squares_to_minus_one():
    z = root_of_unity(4, 1)
    assert z * z == root_of_unity(4, 2)
    assert (z * z).as_rational() == -1


def test_geometric_sum_vanishes():
    for n in (2, 3, 5, 8, 12):
        total = CycNumber.zero(n)
        for k in range(n):
            total = total + root_of_unity(n, k)
        assert total.is_zero()


def test_conj_symmetric_sum_is_real():
    z = root_of_unity(8, 1)
    w = z + z.conj()
    assert w == w.conj()
    assert abs(w.to_float().imag) < 1e-12


def test_vanishing_cube_root_sum_is_rational_zero():
    v = root_of_unity(3, 1) + root_of_unity(3, 2) + 1
    assert v.as_rational() == 0


def test_as_rational_irrational_is_none():
    assert root_of_unity(8, 1).as_rational() is None


def test_to_float_i():
    assert abs(root_of_unity(4, 1).to_float() - 1j) < 1e-12


def test_cyclotomic_product_identity():
    # product of Phi_d over d | n is x^n - 1
    for n in range(1, 201):
        poly = [-1] + [0] * (n - 1) + [1]
        for d in divisors(n):
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
        assert poly == [1], n


def test_euler_phi_matches_cyclotomic_degree():
    for n in range(1, 80):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_float_ring_homomorphism_random():
    rng = random.Random(7)
    n = 24
    for _ in range(60):
        a = CycNumber(n, {rng.randrange(n): rng.randint(-4, 4) for _ in range(3)})
        b = CycNumber(n, {rng.randrange(n): rng.randint(-4, 4) for _ in range(3)})
        assert abs((a * b).to_float() - a.to_float() * b.to_float()) < 1e-9
        assert abs((a + b).to_float() - (a.to_float() + b.to_float())) < 1e-9


def test_norm_nonnegative():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.choice([5, 8, 12, 24])
        z = CycNumber(n, {rng.randrange(n): rng.randint(-3, 3) for _ in range(4)})
        v = (z * z.conj()).to_float()
        assert v.real >= -1e-9
        assert abs(v.imag) < 1e-9


def test_equality_after_reduction_and_hash():
    # zeta_6 = 1 + zeta_6^2 + ... use zeta_6 - zeta_6^2 = 1 relation family:
    # 1 + zeta_3 + zeta_3^2 = 0 so zeta_3 == -1 - zeta_3^2
    a = root_of_unity(3, 1)
    b = CycNumber(3, {0: -1, 2: -1})
    assert a == b
    assert hash(a) == hash(b)


def test_mixed_conductor_rejected():
    with pytest.raises(ValueError):
        root_of_unity(4, 1) + root_of_unity(8, 1)
    with pytest.raises(ValueError):
        root_of_unity(4, 1) * root_of_unity(8, 1)


def test_rational_scalars():
    z = root_of_unity(5, 1)
    assert (z * Fraction(1, 2) + z * Fraction(1, 2)) == z
    assert (z - z).is_zero()
    assert (Fraction(3, 4) * CycNumber.one(5)).as_rational() == Fraction(3, 4)


def test_coeffs_padded_to_conductor():
    z = root_of_unity(8, 1)
    assert len(z.coeffs) == 8
    assert z.coeffs[1] == 1 and not any(z.coeffs[2:])


def test_str_rendering_deterministic():
    z = root_of_unity(8, 1) + 2
    assert str(z) == str(root_of_unity(8, 1) + 2)
    assert str(CycNumber.from_rational(8, Fraction(3, 4))) == "3/4"
