from collections import Counter
from fractions import Fraction

import pytest

from conftest import char_table, cyc_product, group_table
from gl2zeta.cyclo import CycNumber
from gl2zeta.grp import ClassFunction, ConjClass, mat_inv, mat_mul
from gl2zeta.oracle import brute_hom_count, brute_quotient_count
from gl2zeta.reptheory import rational_sum
from gl2zeta.topo import (
    CentralizerData,
    HomCount,
    SurfaceSpec,
    class_indicator_spectral,
    convolve_spectral,
    fourier_coefficients,
    hom_count,
    induced_char_value,
    quotient_count,
    theta_square_spectral,
    theta_torus_spectral,
)
from gl2zeta.zeta import zeta_double


def class_reps(table):
    reps = []
    for kind in ("central", "unipotent", "diagonal", "elliptic"):
        match = [c for c in table.ctx.classes if c.kind == kind]
        if match:
            reps.append(match[0])
    return reps


def test_surface_spec_validation():
    with pytest.raises(ValueError):
        SurfaceSpec(False, 0)
    with pytest.raises(ValueError):
        SurfaceSpec(True, -1)
    assert SurfaceSpec(True, 2).euler_characteristic == -2
    assert SurfaceSpec(False, 3).euler_characteristic == -1


def test_hom_count_examples():
    T2 = char_table("gl", 2)
    assert hom_count(T2, SurfaceSpec(True, 1)) == HomCount(18, "raw |X|")
    assert hom_count(T2, SurfaceSpec(True, 0)).value == 1
    T3 = char_table("gl", 3)
    assert hom_count(T3, SurfaceSpec(False, 1)).value == 14  # 1 + t on RP^2


def test_rp2_counts_equal_one_plus_t():
    for q in (2, 3, 4, 5):
        T = char_table("gl", q)
        t = q * q - 1 if q % 2 == 0 else q * q + q + 1
        assert hom_count(T, SurfaceSpec(False, 1)).value == 1 + t


@pytest.mark.parametrize("q", [2, 3])
def test_closed_orientable_formula_vs_oracle(q):
    T = char_table("gl", q)
    G = group_table("gl", q)
    for g in range(0, 4):
        spec = SurfaceSpec(True, g)
        assert hom_count(T, spec).value == brute_hom_count(G, spec)


@pytest.mark.parametrize("q", [2, 3])
def test_nonorientable_formula_vs_oracle(q):
    T = char_table("gl", q)
    G = group_table("gl", q)
    for g in (1, 2, 3):
        spec = SurfaceSpec(False, g)
        assert hom_count(T, spec).value == brute_hom_count(G, spec)


def test_pgl_counts_also_match():
    T = char_table("pgl", 3)
    G = group_table("pgl", 3)
    for spec in (SurfaceSpec(True, 1), SurfaceSpec(True, 2), SurfaceSpec(False, 2)):
        assert hom_count(T, spec).value == brute_hom_count(G, spec)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_pgl_hom_counts_vs_oracle(q):
    T = char_table("pgl", q)
    G = group_table("pgl", q)
    for orientable, genera in ((True, (0, 1, 2)), (False, (1, 2))):
        for g in genera:
            for boundaries in [()] + [(c,) for c in T.ctx.classes]:
                spec = SurfaceSpec(orientable, g, boundaries)
                assert hom_count(T, spec).value == brute_hom_count(G, spec), spec


def test_boundary_insertions_vs_oracle_q3():
    T = char_table("gl", 3)
    G = group_table("gl", 3)
    reps = class_reps(T)
    for g in (0, 1):
        for c1 in reps:
            spec = SurfaceSpec(True, g, (c1,))
            assert hom_count(T, spec).value == brute_hom_count(G, spec)
            for c2 in reps:
                spec2 = SurfaceSpec(True, g, (c1, c2))
                assert hom_count(T, spec2).value == brute_hom_count(G, spec2)


def test_nonorientable_boundaries_vs_oracle_q3():
    T = char_table("gl", 3)
    G = group_table("gl", 3)
    for g in (1, 2):
        for c1 in class_reps(T):
            spec = SurfaceSpec(False, g, (c1,))
            assert hom_count(T, spec).value == brute_hom_count(G, spec)


def test_central_insertions_enter_through_product_only():
    """Inserting central classes multiplies constraints only through the
    product condition: if the scalars multiply to 1 the count equals the
    no-boundary count (the commutator product is already in SL)."""
    for q in (2, 3):
        T = char_table("gl", q)
        G = group_table("gl", q)
        F = T.ctx.field
        one = ConjClass("gl", "central", (1,))
        for g in (1, 2):
            base = hom_count(T, SurfaceSpec(True, g)).value
            assert hom_count(T, SurfaceSpec(True, g, (one,))).value == base
            for x in range(1, q):
                xc = ConjClass("gl", "central", (x,))
                inv = ConjClass("gl", "central", (F.inv(x),))
                spec = SurfaceSpec(True, g, (xc, inv))
                assert hom_count(T, spec).value == base
                assert brute_hom_count(G, spec) == base


def test_quotient_count_examples():
    T2 = char_table("gl", 2)
    assert quotient_count(T2, SurfaceSpec(True, 1)).value == 8
    assert quotient_count(T2, SurfaceSpec(True, 0)).value == 1
    # genus 2: |G|^2 * zeta_double(2)
    want = 36 * zeta_double(T2, 2)
    assert quotient_count(T2, SurfaceSpec(True, 2)).value == want == 116


@pytest.mark.parametrize("q", [2, 3])
def test_quotient_vs_oracle(q):
    T = char_table("gl", q)
    G = group_table("gl", q)
    for g in (1, 2):
        for orient in (True, False):
            spec = SurfaceSpec(orient, g)
            formula = quotient_count(T, spec).value
            assert formula == brute_quotient_count(G, spec, "burnside")


def test_quotient_orbit_crosscheck_q2():
    T = char_table("gl", 2)
    G = group_table("gl", 2)
    for spec in (SurfaceSpec(True, 1), SurfaceSpec(True, 2), SurfaceSpec(False, 2)):
        assert quotient_count(T, spec).value == brute_quotient_count(G, spec, "orbits")


def test_boundary_quotient_vs_oracle_q3():
    T = char_table("gl", 3)
    G = group_table("gl", 3)
    for c1 in class_reps(T):
        spec = SurfaceSpec(True, 1, (c1,))
        assert quotient_count(T, spec).value == brute_quotient_count(G, spec)
        for g in (1, 2):
            nspec = SurfaceSpec(False, g, (c1,))
            assert quotient_count(T, nspec).value == brute_quotient_count(G, nspec)


def test_boundary_quotient_r2_q2():
    T = char_table("gl", 2)
    G = group_table("gl", 2)
    cs = T.ctx.classes
    for c1 in cs:
        for c2 in cs:
            spec = SurfaceSpec(True, 1, (c1, c2))
            assert quotient_count(T, spec).value == brute_quotient_count(G, spec)


def test_quotient_rejects_pgl():
    with pytest.raises(ValueError):
        quotient_count(char_table("pgl", 3), SurfaceSpec(True, 1))


def test_central_insertion_neutral_in_quotient():
    """c1:0 is the identity, so inserting it changes nothing.  At q = 23 the
    group has 267168 elements, past any enumeration cap: the formula side
    never enumerates G."""
    one = ConjClass("gl", "central", (1,))
    for q in (3, 23):
        T = char_table("gl", q)
        for orient in (True, False):
            base = quotient_count(T, SurfaceSpec(orient, 1)).value
            assert quotient_count(T, SurfaceSpec(orient, 1, (one,))).value == base


# -- induced characters -------------------------------------------------------


def _abs_trace(F, v):
    """Absolute trace F_q -> F_p (prime-field codes are the integers 0..p-1)."""
    t, y = 0, v
    for _ in range(F.e):
        t = F.add(t, y)
        y = F.pow(y, F.p)
    assert t < F.p
    return t


def _reference_char(data, m):
    """rho(m) for every character rho of the abelian centralizer, as powers
    of zeta_{p(q^2-1)}, or None when m is outside it.  Membership is
    commuting with the host representative; the characters are written out
    from their definitions, independently of `CentralizerData.meet_sum`."""
    ctx = data.ctx
    F, E, q = ctx.field, ctx.ext, ctx.q
    p, n = F.p, q * q - 1
    rep = ctx.representative(data.cls)
    if mat_mul(F, m, rep) != mat_mul(F, rep, m):
        return None
    a, b, c, d = m
    if data.structure == "mirabolic":  # m = a(1 + uN)
        u = F.mul(b, F.inv(a))
        return [
            (mm * F.dlog(a) * (q + 1) * p + _abs_trace(F, F.mul(t, u)) * n) % (p * n)
            for mm, t in (r.params for r in data.characters())
        ]
    if data.structure == "split-torus":  # m = diag(a, d)
        return [
            (m1 * F.dlog(a) + m2 * F.dlog(d)) * (q + 1) * p % (p * n)
            for m1, m2 in (r.params for r in data.characters())
        ]
    # m = a + c * C(lam), and C(lam) -> lam embeds the torus into E^x
    lam = E.add(E.embed(a), E.mul(E.embed(c), data.cls.params[0]))
    return [r.params[0] * E.dlog(lam) * p % (p * n) for r in data.characters()]


def _conjugates(ctx, gamma):
    """Multiset {x gamma x^-1 : x in G}."""
    F = ctx.field
    rep = ctx.representative(gamma)
    return Counter(mat_mul(F, mat_mul(F, x, rep), mat_inv(F, x)) for x in ctx.enumerate_group())


def _lift(z, m):
    """z in Q(zeta_n) as (coefficient, power) pairs in Q(zeta_m), n | m."""
    step = m // z.n
    return [(c, i * step) for i, c in enumerate(z.coeffs) if c]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_induced_matches_enumerated_reference(q):
    """Tr(Ind_H^G rho)(gamma) = (1/|H|) sum over x in G with x gamma x^-1 in H
    of rho(x gamma x^-1), for every host class, every rho and every gamma;
    q = 4 has additive characters of F_4 over F_2."""
    T = char_table("gl", q)
    ctx = T.ctx
    P = ctx.field.p * T.n
    conjugates = {gamma: _conjugates(ctx, gamma) for gamma in ctx.classes}
    for host in ctx.classes:
        data = CentralizerData(T, host)
        chars = data.characters()
        for gamma in ctx.classes:
            if data.structure == "full":
                for rho in chars:
                    assert induced_char_value(T, host, rho, gamma) == T.value(rho.irrep, gamma)
                continue
            acc = [Counter() for _ in chars]
            members = 0
            for m, cnt in conjugates[gamma].items():
                powers = _reference_char(data, m)
                if powers is None:
                    continue
                members += cnt
                for i, k in enumerate(powers):
                    acc[i][k] += cnt
            assert members % ctx.centralizer(gamma).order == 0
            for rho, terms in zip(chars, acc):
                want = CycNumber(P, {k: Fraction(c, data.order) for k, c in terms.items()})
                got = CycNumber.from_monomials(P, _lift(induced_char_value(T, host, rho, gamma), P))
                assert got == want


def test_induced_from_whole_group_is_character():
    T = char_table("gl", 3)
    central = ConjClass("gl", "central", (1,))
    data = CentralizerData(T, central)
    for rho in data.characters()[:4]:
        for gamma in T.ctx.classes:
            got = induced_char_value(T, central, rho, gamma)
            assert got == T.value(rho.irrep, gamma)


def test_induced_vanishes_off_meeting_classes():
    T = char_table("gl", 3)
    host = next(c for c in T.ctx.classes if c.kind == "diagonal")
    data = CentralizerData(T, host)
    # a unipotent class never meets the split torus
    gamma = ConjClass("gl", "unipotent", (1,))
    for rho in data.characters():
        assert induced_char_value(T, host, rho, gamma).is_zero()


def test_induced_trivial_character_counts_cosets():
    """Tr(Ind_H 1)(gamma) = |{x : x gamma x^-1 in H}| / |H| is the number of
    host conjugates commuting with gamma, so its sum over the host classes,
    divided by |C_G(gamma)|, is Burnside's count for the annulus whose
    boundaries are gamma and gamma^-1 (one orbit: the class of gamma)."""
    for q in (3, 4):
        T = char_table("gl", q)
        G = group_table("gl", q)
        ctx = T.ctx
        trivial = []  # (host, its trivial character)
        for host in ctx.classes:
            rho = CentralizerData(T, host).characters()[0]
            assert rho.irrep == T.irreps[0] if rho.irrep else not any(rho.params)
            trivial.append((host, rho))
        for gamma in ctx.classes:
            total = sum(
                induced_char_value(T, host, rho, gamma).as_rational() for host, rho in trivial
            )
            ginv = ctx.classify(mat_inv(ctx.field, ctx.representative(gamma)))
            annulus = SurfaceSpec(True, 0, (gamma, ginv))
            want = brute_quotient_count(G, annulus, "burnside")
            assert total == ctx.centralizer(gamma).order * want


def test_induced_character_fourier_lemma():
    """The class-indicator restriction to H expands over H-characters with
    coefficients Tr(Ind rho)(gamma^{-1}) / |C(gamma)|, pointwise on H."""
    T = char_table("gl", 3)
    ctx = T.ctx
    F = ctx.field
    P = F.p * T.n
    for host in ctx.classes:
        data = CentralizerData(T, host)
        if data.structure == "full":
            continue
        members = []
        for x in ctx.enumerate_group():
            powers = _reference_char(data, x)
            if powers is not None:
                members.append((x, powers))
        assert len(members) == data.order
        for gamma in ctx.classes:
            ginv = ctx.classify(mat_inv(F, ctx.representative(gamma)))
            cgamma = ctx.centralizer(gamma).order
            traces = [
                _lift(induced_char_value(T, host, rho, ginv), P) for rho in data.characters()
            ]
            gi = ctx.class_index[gamma]
            for h, powers in members:
                lhs = 1 if ctx.class_index[ctx.classify(h)] == gi else 0
                rhs = []
                for k, tr in zip(powers, traces):
                    rhs += [(Fraction(c, cgamma), j) for j, c in cyc_product(P, [(1, k)], tr).items()]
                assert CycNumber.from_monomials(P, rhs).as_rational() == lhs


# -- spectral class functions ---------------------------------------------------


@pytest.mark.parametrize("g,q", [("gl", 2), ("gl", 3), ("pgl", 3), ("gl", 4)])
def test_theta_spectral_equals_enumerative(g, q):
    T = char_table(g, q)
    G = group_table(g, q)
    assert theta_torus_spectral(T) == G.theta_torus()
    assert theta_square_spectral(T) == G.theta_square()


def test_class_indicator_expansion():
    T = char_table("gl", 3)
    G = group_table("gl", 3)
    for c in T.ctx.classes:
        assert class_indicator_spectral(T, c) == G.class_indicator(c)


def test_spectral_convolution_matches_element_level():
    for g, q in (("gl", 3), ("gl", 5), ("pgl", 5)):
        T = char_table(g, q)
        G = group_table(g, q)
        th = G.theta_torus()
        sq = G.theta_square()
        spectral = convolve_spectral(T, th, sq)
        element = G.convolve(th, sq)
        for ci in range(len(T.ctx.classes)):
            assert spectral.values[ci] == element.values[ci], (g, q, ci)


def _power_parts(T, pi) -> dict:
    """chi_pi = sum over k of zeta^k e_k, with integer-valued class functions e_k."""
    parts = {}
    for ci, monos in enumerate(T.row(pi)):
        for a, k in monos:
            parts.setdefault(k, [0] * len(T.ctx.classes))[ci] += a
    return {k: ClassFunction(T.ctx, vals) for k, vals in parts.items()}


def test_characters_convolve_diagonally():
    """chi * chi' = [pi = pi'] (|G|/dim) chi under the counting convolution;
    the element-level convolution is bilinear, so it runs on the integer
    coefficient functions of each power of zeta."""
    T = char_table("gl", 3)
    G = group_table("gl", 3)
    for i, pi in enumerate(T.irreps[:4]):
        f = _power_parts(T, pi)
        for j, rho in enumerate(T.irreps[:4]):
            h = _power_parts(T, rho)
            conv = [[] for _ in T.ctx.classes]
            for k, fk in f.items():
                for l, hl in h.items():
                    for ci, v in enumerate(G.convolve(fk, hl).values):
                        conv[ci].append((v, k + l))
            for ci, c in enumerate(T.ctx.classes):
                want = (
                    CycNumber.from_monomials(
                        T.n, [(a * Fraction(T.order, T.dims[i]), k) for a, k in T.row(pi)[ci]]
                    )
                    if i == j
                    else CycNumber(T.n)
                )
                assert CycNumber.from_monomials(T.n, conv[ci]) == want


def test_fourier_coefficients_recover_function():
    T = char_table("gl", 3)
    G = group_table("gl", 3)
    th = G.theta_square()
    coeffs = fourier_coefficients(T, th)
    for ci, c in enumerate(T.ctx.classes):
        assert rational_sum(T.n, coeffs, [T.column(c)]) == th.values[ci]
    # theta_square Fourier coefficients are exactly the FS indicators
    assert coeffs == T.fs


def test_fourier_coefficients_of_irrational_function_raise():
    """The indicator of an elliptic class has the irrational coefficients
    (|O|/|G|) conj(chi_pi(gamma)) on the cuspidal irreps."""
    T = char_table("gl", 3)
    G = group_table("gl", 3)
    elliptic = next(c for c in T.ctx.classes if c.kind == "elliptic")
    with pytest.raises(ArithmeticError):
        fourier_coefficients(T, G.class_indicator(elliptic))
