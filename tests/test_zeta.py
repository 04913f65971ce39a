from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import char_table
from gl2zeta.grp import ConjClass, mat_det
from gl2zeta.zeta import (
    ClosedFormUnavailable,
    Dirichlet,
    zeta,
    zeta_closed_gl,
    zeta_closed_pgl,
    zeta_double,
    zeta_double_closed,
    zeta_fs,
    zeta_fs_closed_gl,
    zeta_fs_closed_pgl,
    zeta_insert,
    zeta_insert_closed,
)

ALL_Q = [2, 3, 4, 5, 7, 8, 9]
S_GRID = range(-4, 7)


def test_zeta_examples():
    assert zeta(char_table("gl", 3), 0) == 8
    assert zeta(char_table("gl", 2), -2) == 6  # sum of dim^2 = |G|
    assert zeta(char_table("gl", 3), 2) == Fraction(437, 144)
    assert zeta_closed_pgl(3, 0) == 5  # S4 has five classes
    assert zeta_closed_pgl(2, 0) == 3
    assert zeta_closed_gl(3, 0) == 8


@pytest.mark.parametrize("q", ALL_Q)
@pytest.mark.parametrize("g", ["gl", "pgl"])
def test_zeta_closed_equals_generic(g, q):
    T = char_table(g, q)
    closed = zeta_closed_gl if g == "gl" else zeta_closed_pgl
    for s in S_GRID:
        assert closed(q, s) == zeta(T, s)


@pytest.mark.parametrize("q", ALL_Q)
@pytest.mark.parametrize("g", ["gl", "pgl"])
def test_zeta_special_values(g, q):
    T = char_table(g, q)
    assert zeta(T, 0) == len(T.ctx.classes)
    assert zeta(T, -2) == T.ctx.order  # Burnside; not |G|^2
    assert zeta(T, -2) != T.ctx.order ** 2


@pytest.mark.parametrize("q", ALL_Q)
def test_fs_split(q):
    for g in ("gl", "pgl"):
        T = char_table(g, q)
        closed = zeta_fs_closed_gl if g == "gl" else zeta_fs_closed_pgl
        for s in S_GRID:
            parts = [zeta_fs(T, eps, s) for eps in (1, 0, -1)]
            assert sum(parts) == zeta(T, s)
            for eps, part in zip((1, 0, -1), parts):
                assert closed(q, eps, s) == part
        assert zeta_fs(T, -1, 3) == 0
        if g == "pgl":
            assert zeta_fs(T, 0, 3) == 0


@pytest.mark.parametrize("closed", [zeta_fs_closed_gl, zeta_fs_closed_pgl])
def test_fs_closed_rejects_bad_eps(closed):
    # the generic zeta_fs rejects these; the closed forms returned the
    # eps = 0 (GL) or eps = +1 (PGL) value for them
    for eps in (2, 7, -2):
        with pytest.raises(ValueError, match="eps must be -1, 0 or"):
            closed(5, eps, 1)


def test_insert_examples():
    T3 = char_table("gl", 3)
    c2 = ConjClass("gl", "unipotent", (1,))
    assert zeta_insert(T3, [c2], 0) == Fraction(3, 4)
    # determinant obstruction
    c3 = ConjClass("gl", "diagonal", (1, 2))
    assert zeta_insert(T3, [c3], 0) == 0
    # identity insertion on PGL reproduces zeta
    P3 = char_table("pgl", 3)
    idc = ConjClass("pgl", "identity", ())
    for s in range(-2, 4):
        assert zeta_insert(P3, [idc], s) == zeta(P3, s)


@pytest.mark.parametrize("q", ALL_Q)
def test_gl_insert_vanishes_off_determinant_one(q):
    T = char_table("gl", q)
    F = T.ctx.field
    for c in T.ctx.classes:
        det = mat_det(F, T.ctx.representative(c))
        if det != 1:
            assert zeta_insert(T, [c], 1) == 0


@pytest.mark.parametrize("q", ALL_Q)
@pytest.mark.parametrize("g", ["gl", "pgl"])
def test_one_insertion_closed_equals_generic(g, q):
    T = char_table(g, q)
    for c in T.ctx.classes:
        if g == "pgl" and c.kind == "identity":
            continue
        for s in range(-4, 7):
            assert zeta_insert_closed(T, [c], s) == zeta_insert(T, [c], s), (c, s)


def test_pgl_displayed_one_insertion_forms():
    """The simplified one-insertion expressions, checked verbatim."""
    from gl2zeta.chars import epsilon_E_value, epsilon_value

    for q in (3, 5, 7, 9):
        T = char_table("pgl", q)
        E = T.ctx.ext
        for s in range(-3, 4):
            # unipotent (cuspidal dimension q-1 in the last denominator)
            want = (
                2
                + Fraction(q - 3, 2) * Fraction(q + 1) ** (-(s + 1))
                - Fraction(q - 1, 2) * Fraction(q - 1) ** (-(s + 1))
            )
            c2 = next(c for c in T.ctx.classes if c.kind == "unipotent")
            assert zeta_insert(T, [c2], s) == want
            for c in T.ctx.classes:
                if c.kind == "diagonal":
                    x = c.params[0]
                    want = (1 + Fraction(q) ** (-(s + 1)) - Fraction(q + 1) ** (-(s + 1))) * (
                        1 + epsilon_value(E, x)
                    )
                    assert zeta_insert(T, [c], s) == want
                elif c.kind == "elliptic":
                    lam = c.params[0]
                    want = (
                        (1 + Fraction(q - 1) ** (-(s + 1)) - Fraction(q) ** (-(s + 1)))
                        + epsilon_value(E, E.norm(lam)) * (1 - Fraction(q) ** (-(s + 1)))
                        + Fraction(q - 1) ** (-(s + 1)) * epsilon_E_value(E, lam)
                    )
                    assert zeta_insert(T, [c], s) == want
    for q in (2, 4, 8):
        T = char_table("pgl", q)
        for s in range(-3, 4):
            c2 = next(c for c in T.ctx.classes if c.kind == "unipotent")
            want = (
                1
                + Fraction(q - 2, 2) * Fraction(q + 1) ** (-(s + 1))
                - Fraction(q, 2) * Fraction(q - 1) ** (-(s + 1))
            )
            assert zeta_insert(T, [c2], s) == want
            for c in T.ctx.classes:
                if c.kind == "diagonal":
                    want = 1 - Fraction(q + 1) ** (-(s + 1)) + Fraction(q) ** (-(s + 1))
                    assert zeta_insert(T, [c], s) == want
                elif c.kind == "elliptic":
                    want = 1 - Fraction(q) ** (-(s + 1)) + Fraction(q - 1) ** (-(s + 1))
                    assert zeta_insert(T, [c], s) == want


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
def test_pgl_multi_insertion_closed_equals_generic(q):
    T = char_table("pgl", q)
    diag = [c for c in T.ctx.classes if c.kind == "diagonal"]
    ell = [c for c in T.ctx.classes if c.kind == "elliptic"]
    for r in (2, 3):
        combos = list(combinations_with_replacement(diag + ell, r))
        if len(combos) > 120:
            combos = combos[::5]
        for combo in combos:
            for s in (-2, 0, 1, 3):
                assert zeta_insert_closed(T, combo, s) == zeta_insert(T, combo, s)


def test_insert_closed_reads_no_field(monkeypatch):
    """The closed insertion forms are integer arithmetic on the class dlogs:
    with the field methods and the epsilon helpers patched to raise, every
    pattern gives the value recorded before the patch."""
    from gl2zeta import chars
    from gl2zeta.ffield import ExtField, Field

    cases = []
    for q in (8, 9):
        for g in ("gl", "pgl"):
            T = char_table(g, q)
            cases += [(T, (c,)) for c in T.ctx.classes if c.kind != "identity"]
        P = char_table("pgl", q)
        de = [c for c in P.ctx.classes if c.kind in ("diagonal", "elliptic")]
        cases += [(P, p) for r in (2, 3) for p in combinations_with_replacement(de, r)]
    want = [[zeta_insert_closed(T, p, s) for s in (-1, 2)] for T, p in cases]

    def forbidden(*args):
        raise AssertionError("field method called by a closed form")

    for owner, names in ((Field, ("mul", "inv", "dlog")),
                         (ExtField, ("mul", "norm", "frobenius", "in_base", "is_square")),
                         (chars, ("epsilon_value", "epsilon_E_value"))):
        for name in names:
            monkeypatch.setattr(owner, name, forbidden)
    with pytest.raises(AssertionError):
        chars.epsilon_value(char_table("pgl", 9).ctx.ext, 1)
    assert [[zeta_insert_closed(T, p, s) for s in (-1, 2)] for T, p in cases] == want


def test_pgl_mixed_insertion_form():
    from gl2zeta.chars import epsilon_value

    for q in (3, 5, 7):
        T = char_table("pgl", q)
        E = T.ctx.ext
        F = T.ctx.field
        diag = [c for c in T.ctx.classes if c.kind == "diagonal"]
        ell = [c for c in T.ctx.classes if c.kind == "elliptic"]
        for cd in diag:
            for ce in ell:
                for s in (-1, 0, 2):
                    r = 2
                    arg = F.mul(cd.params[0], E.norm(ce.params[0]))
                    want = (1 + (-1) * Fraction(q) ** (-(s + r))) * (
                        1 + epsilon_value(E, arg)
                    )
                    assert zeta_insert(T, [cd, ce], s) == want


def test_closed_form_unavailable_patterns():
    T = char_table("pgl", 3)
    un = next(c for c in T.ctx.classes if c.kind == "unipotent")
    di = next(c for c in T.ctx.classes if c.kind == "diagonal")
    with pytest.raises(ClosedFormUnavailable):
        zeta_insert_closed(T, [un, di], 0)
    G = char_table("gl", 3)
    c2 = ConjClass("gl", "unipotent", (1,))
    with pytest.raises(ClosedFormUnavailable):
        zeta_insert_closed(G, [c2, c2], 0)


def test_double_examples():
    assert zeta_double(char_table("gl", 2), 0) == 8
    assert zeta_double(char_table("gl", 3), 0) == 56 == zeta_double_closed(3, 0)
    assert zeta_double(char_table("gl", 2), -2) == 36  # |D(G)| = |G|^2


@pytest.mark.parametrize("q", ALL_Q)
def test_double_closed_equals_generic(q):
    T = char_table("gl", q)
    for s in S_GRID:
        assert zeta_double_closed(q, s) == zeta_double(T, s)


def test_double_rejects_pgl():
    with pytest.raises(ValueError):
        zeta_double(char_table("pgl", 3), 0)


def test_float_path_matches_exact():
    for g, q in (("gl", 3), ("pgl", 5), ("gl", 4)):
        T = char_table(g, q)
        closed = zeta_closed_gl if g == "gl" else zeta_closed_pgl
        for s in (0.5, 1.25, 2 + 0.5j):
            # one polynomial, one evaluation: the floats agree bit for bit
            assert zeta(T, s) == closed(q, s)
        # integer point: float path vs exact path
        exact = zeta(T, 2)
        approx = zeta(T, 2.0)
        assert abs(complex(exact) - approx) <= 1e-9 * abs(exact)
        c = T.ctx.classes[-1]
        ei = zeta_insert(T, [c], 1)
        ef = zeta_insert(T, [c], 1.0)
        assert abs(complex(ei) - ef) <= 1e-9 * max(1.0, abs(ei))


def test_insert_requires_matching_context():
    T = char_table("gl", 3)
    c_pgl = ConjClass("pgl", "identity", ())
    with pytest.raises(ValueError):
        zeta_insert(T, [c_pgl], 0)
    with pytest.raises(ValueError):
        zeta_insert(T, [], 0)


def test_both_insertion_evaluators_check_the_group():
    Tp = char_table("pgl", 5)
    gl_diag = next(c for c in char_table("gl", 5).ctx.classes if c.kind == "diagonal")
    for fn in (zeta_insert, zeta_insert_closed):
        with pytest.raises(ValueError, match="different group"):
            fn(Tp, [gl_diag], 1)
        with pytest.raises(ValueError, match="at least one"):
            fn(Tp, [], 1)


def test_dirichlet_merges_bases_and_drops_zeros():
    p = Dirichlet([(1, 1), (3, Fraction(1, 2)), (1, 2), (5, 0), (3, Fraction(-1, 2))])
    assert p.coeffs == {1: 3} and p == Dirichlet([(1, 3)])
    assert p - p == Dirichlet() and p != Dirichlet([(1, 3), (2, 1)])
    assert p.at(None) is p
    two = Dirichlet([(2, 1)])
    assert two.at(-3) == 8 and isinstance(two.at(-3), Fraction)
    assert two.at(-3.0) == 8 + 0j and isinstance(two.at(-3.0), complex)
    assert Dirichlet().at(0.5) == 0 and isinstance(Dirichlet().at(0.5), complex)


@pytest.mark.parametrize("q", ALL_Q)
def test_closed_forms_equal_generic_as_polynomials(q):
    # at q = 2 the cuspidal base q - 1 is the constant term's base 1
    gl, pgl = char_table("gl", q), char_table("pgl", q)
    assert zeta_closed_gl(q, None) == zeta(gl, None)
    assert zeta_closed_pgl(q, None) == zeta(pgl, None)
    assert zeta_double_closed(q, None) == zeta_double(gl, None)
    for eps in (-1, 0, 1):
        assert zeta_fs_closed_gl(q, eps, None) == zeta_fs(gl, eps, None)
        assert zeta_fs_closed_pgl(q, eps, None) == zeta_fs(pgl, eps, None)


def test_insert_elements_wrapper():
    from gl2zeta.zeta import zeta_insert_elements

    T = char_table("gl", 3)
    m = (1, 1, 0, 1)  # unipotent
    assert zeta_insert_elements(T, [m], 0) == Fraction(3, 4)
    c = T.ctx.classes[-1]
    rep = T.ctx.representative(c)
    assert zeta_insert_elements(T, [rep, rep], 1) == zeta_insert(T, [c, c], 1)
