import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import cyc_product
from gl2zeta import cyclo, reptheory
from gl2zeta.cli import main
from gl2zeta.cyclo import (
    CycNumber,
    cyclotomic_polynomial,
    divisors,
    _orbit_rational,
    _poly_div_exact,
)
from gl2zeta.verify import run_verify


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


# -- rational sums by Galois orbits -------------------------------------------


def _orbit_constant(n: int, rng: random.Random) -> dict:
    """A random {power: coefficient} dict, constant on each orbit
    {k : gcd(k, n) = d}; about half of the orbits are left out."""
    level = {d: rng.choice([0, 0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 4)])
             for d in divisors(n)}
    return {k: level[gcd(k, n)] for k in range(n) if level[gcd(k, n)]}


def _reduced(n: int, terms: dict):
    """The value by reduction mod Phi_n, or None when it is not rational."""
    canon = CycNumber(n, terms).canonical_coeffs()
    return None if any(canon[1:]) else Fraction(canon[0])


@pytest.mark.parametrize("n", [24, 63, 80, 255, 528, 4095])
def test_orbit_rational_equals_reduction(n):
    rng = random.Random(n)
    for _ in range(2 if n == 4095 else 8):
        terms = _orbit_constant(n, rng)
        got = _orbit_rational(n, terms)
        assert got is not None
        assert got == _reduced(n, terms)
        # perturbing one power in an orbit of size > 1 breaks orbit constancy
        k = rng.choice([k for k in range(1, n) if 2 * k != n])
        bumped = dict(terms)
        bumped[k] = bumped.get(k, 0) + 1
        assert _orbit_rational(n, bumped) is None
        # the orbits {0} and {n/2} have one element (zeta^0 = 1, zeta^(n/2) = -1)
        for k, shift in ((0, 1), (n // 2, -1)) if n % 2 == 0 else ((0, 1),):
            bumped = dict(terms)
            bumped[k] = bumped.get(k, 0) + 1
            assert _orbit_rational(n, {j: c for j, c in bumped.items() if c}) == got + shift


def test_orbit_rational_needs_complete_orbits():
    # three of the four primitive 8th roots of unity sum to -zeta_8^7
    assert _orbit_rational(8, {1: 1, 3: 1, 5: 1}) is None
    assert _orbit_rational(8, {1: 1, 3: 1, 5: 1, 7: 1}) == 0  # mu(8)
    assert _orbit_rational(12, {2: 3, 10: 3}) == 3  # 3 * mu(6)
    assert _orbit_rational(12, {4: 1, 8: 1, 0: 2}) == 1  # mu(3) + 2 * mu(1)


def test_norm_one_zeta_at_q64_builds_no_cyclotomic_polynomial(monkeypatch):
    calls = {"cyclotomic_polynomial": 0, "_power_table": 0}
    for name in calls:
        original = getattr(cyclo, name)
        original.cache_clear()

        def counted(n, _name=name, _original=original):
            calls[_name] += 1
            return _original(n)

        monkeypatch.setattr(cyclo, name, counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["zeta", "--q", "64", "--s", "2", "--insert", "c4:63", "--both",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(out.getvalue())
    assert doc["match"] is True and doc["generic"] != "0"
    assert calls == {"cyclotomic_polynomial": 0, "_power_table": 0}


# A cuspidal value negated on one elliptic class breaks Galois covariance, so
# these sums fall back to the reduction mod Phi_n and fail exactly as they do
# without the orbit test.
MUTANT_FAILS_AT_Q5 = [
    "character-table-orthogonality",
    "fusion-closed-forms",
    "fusion-dimension-identity",
    "zeta-insertion-closed-forms",
    "zeta-insertion-determinant-vanishing",
    "boundary-insertions-vs-oracle",
    "boundary-quotient-vs-oracle",
    "theta-spectral-vs-enumerative",
    "spectral-convolution-diagonalization",
]


def test_one_cell_sign_mutant_fails_the_same_checks(monkeypatch):
    original = reptheory.CharacterTable._monomials

    def mutant(self, pi, kind, d):
        monos = original(self, pi, kind, d)
        if (self.group, pi.kind, pi.params, kind, d) == ("gl", "cuspidal", (1,), "elliptic", (1,)):
            return tuple((-c, k) for c, k in monos)
        return monos

    monkeypatch.setattr(reptheory.CharacterTable, "_monomials", mutant)
    with_orbits = [(r.name, r.status, r.note) for r in run_verify(5)]
    monkeypatch.setattr(cyclo, "_orbit_rational", lambda n, terms: None)
    without = [(r.name, r.status, r.note) for r in run_verify(5)]
    assert with_orbits == without
    assert [name for name, status, _ in with_orbits if status != "pass"] == MUTANT_FAILS_AT_Q5
