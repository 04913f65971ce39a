from collections import Counter

import pytest

from gl2zeta.ffield import (
    CapExceeded,
    FieldError,
    build_extension,
    build_field,
    prime_power,
)

SMALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


def test_build_field_examples():
    assert build_field(2, 1).g == 1  # only nonzero element
    assert build_field(3, 1).g == 2  # order 2 = q - 1
    assert build_field(2, 2).modpoly == (1, 1, 1)  # x^2 + x + 1


def test_build_field_errors():
    with pytest.raises(FieldError):
        build_field(4, 1)
    with pytest.raises(FieldError):
        build_field(2, 0)
    with pytest.raises(CapExceeded):
        build_field(2, 25)


def test_extension_constants():
    assert build_extension(build_field(3, 1)).delta_sq == 2
    assert build_extension(build_field(2, 1)).artin_c == 1
    assert build_extension(build_field(5, 1)).delta_sq == 2


def test_norm_trace_examples():
    E3 = build_extension(build_field(3, 1))
    assert E3.norm(E3.delta) == 1  # -Delta = -2 = 1 mod 3
    assert E3.trace(E3.delta) == 0
    E2 = build_extension(build_field(2, 1))
    assert E2.norm(E2.delta) == 1  # Omega
    assert E2.trace(E2.delta) == 1


def test_base_field_embedding_norm_trace():
    for p, e in SMALL_Q:
        F = build_field(p, e)
        E = build_extension(F)
        for x in range(F.q):
            lam = E.embed(x)
            assert E.norm(lam) == F.mul(x, x)
            assert E.trace(lam) == F.add(x, x)


@pytest.mark.parametrize("p,e", SMALL_Q)
def test_frobenius_structure(p, e):
    F = build_field(p, e)
    E = build_extension(F)
    q = F.q
    fixed = 0
    for lam in E.elements():
        fr = E.frobenius(lam)
        assert fr == E._pow_raw(lam, q)
        assert E.frobenius(fr) == lam
        if fr == lam:
            fixed += 1
            assert E.in_base(lam)
        assert E._mul_raw(lam, fr) == E.embed(E.norm(lam))
        assert E.add(lam, fr) == E.embed(E.trace(lam))
    assert fixed == q


@pytest.mark.parametrize("p,e", SMALL_Q)
def test_norm_fibers(p, e):
    F = build_field(p, e)
    E = build_extension(F)
    cnt = Counter(E.norm(lam) for lam in E.elements() if lam)
    assert len(cnt) == F.q - 1
    assert all(v == F.q + 1 for v in cnt.values())


@pytest.mark.parametrize("p,e", SMALL_Q)
def test_dlog_homomorphism(p, e):
    F = build_field(p, e)
    q = F.q
    for x in range(1, q):
        for y in range(1, q):
            assert (F.dlog(F.mul(x, y)) - F.dlog(x) - F.dlog(y)) % (q - 1) == 0
    assert F.dlog(1) == 0


def test_dlog_zero_is_error():
    F = build_field(3, 1)
    with pytest.raises(FieldError):
        F.dlog(0)


def test_is_square():
    F3 = build_field(3, 1)
    assert not F3.is_square(2)  # squares mod 3 are {0, 1}
    assert F3.is_square(1)
    F4 = build_field(2, 2)
    assert all(F4.is_square(x) for x in range(1, 4))  # every element is a square
    F5 = build_field(5, 1)
    assert {x for x in range(5) if F5.is_square(x)} == {0, 1, 4}


def test_sqrt_consistency():
    for p, e in SMALL_Q:
        F = build_field(p, e)
        for x in range(F.q):
            if F.is_square(x):
                r = F.sqrt(x)
                assert F.mul(r, r) == x


def test_artin_schreier_image_size():
    for p, e in [(2, 1), (2, 2), (2, 3), (2, 4)]:
        F = build_field(p, e)
        image = {F.add(F.mul(x, x), x) for x in range(F.q)}
        assert len(image) == F.q // 2


def test_extension_generator_norm_compatible():
    for p, e in SMALL_Q:
        F = build_field(p, e)
        E = build_extension(F)
        assert E.norm(E.G) == F.g
        # embed(g) = G^(q+1)
        assert E.dlog(E.embed(F.g)) % (E.order - 1) == (F.q + 1) % (E.order - 1)


def test_extension_dlog_homomorphism():
    E = build_extension(build_field(3, 2))
    n = E.order - 1
    els = [lam for lam in E.elements() if lam][:30]
    for a in els:
        for b in els:
            assert (E.dlog(E.mul(a, b)) - E.dlog(a) - E.dlog(b)) % n == 0


def test_trace_surjective():
    for p, e in SMALL_Q:
        F = build_field(p, e)
        E = build_extension(F)
        assert len({E.trace(lam) for lam in E.elements()}) == F.q


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    with pytest.raises(FieldError):
        prime_power(6)
    with pytest.raises(FieldError):
        prime_power(1)


def test_canonical_element_order_is_lexicographic():
    F = build_field(2, 2)
    keys = [F.coeffs(x) for x in F.elements()]
    assert keys == sorted(keys)


def coeff_add(F, x, y):
    """Addition from its definition: coefficient vectors added mod p."""
    return F.encode((a + b) % F.p for a, b in zip(F.coeffs(x), F.coeffs(y)))


def coeff_neg(F, x):
    return F.encode((-a) % F.p for a in F.coeffs(x))


@pytest.mark.parametrize(
    "p,e", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]
)
def test_zech_addition_matches_coefficient_vectors(p, e):
    F = build_field(p, e)
    for x in range(F.q):
        assert F.neg(x) == coeff_neg(F, x)
        assert F.add(x, F.neg(x)) == 0
        for y in range(F.q):
            assert F.add(x, y) == coeff_add(F, x, y)
            assert F.sub(x, y) == coeff_add(F, x, coeff_neg(F, y))


@pytest.mark.parametrize("p,e", [(2, 2), (3, 2)])
def test_extension_addition_matches_coefficient_vectors(p, e):
    F = build_field(p, e)
    E = build_extension(F)
    for l1 in E.elements():
        a1, b1 = E.unpack(l1)
        for l2 in E.elements():
            a2, b2 = E.unpack(l2)
            assert E.add(l1, l2) == E.pack(coeff_add(F, a1, a2), coeff_add(F, b1, b2))
