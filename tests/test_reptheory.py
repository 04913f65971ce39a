import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    MulChar,
    char_table,
    context,
    cyc_product,
    enumerate_M,
    enumerate_N,
    group_table,
    value_power,
)
from gl2zeta.cyclo import CycNumber
from gl2zeta.grp import ConjClass
from gl2zeta.verify import brute_fs, brute_fusion
from gl2zeta.reptheory import CharacterTable, Irrep, monomial_sum, rational_sum
from gl2zeta.zeta import zeta_insert

ALL_Q = [2, 3, 4, 5, 7, 8, 9]


def rational(n, value):
    """The rational `value` as an element of Q(zeta_n)."""
    return CycNumber(n, {0: value})


# -- reference cells: the table computed from class parameters by field calls --


def _ref_merge(pairs):
    acc = {}
    for c, k in pairs:
        acc[k] = acc.get(k, 0) + c
    return tuple((c, k) for k, c in sorted(acc.items()) if c)


def _ref_lift(T, pi, c):
    """PGL irreps/classes as GL ones (trivial central character lifts)."""
    q = T.q
    if c.kind == "identity":
        gc = ConjClass("gl", "central", (1,))
    elif c.kind == "unipotent":
        gc = ConjClass("gl", "unipotent", (1,))
    elif c.kind == "diagonal":
        gc = ConjClass("gl", "diagonal", (c.params[0], 1))
    else:
        gc = ConjClass("gl", "elliptic", c.params)
    if pi.kind == "principal":
        a = pi.params[0]
        gp = Irrep("gl", "principal", (a, (-a) % (q - 1)))
    else:
        gp = Irrep("gl", pi.kind, pi.params)
    return gp, gc


def reference_cell(T, pi, c):
    """The value of pi on c from the field parameters of c, branch by branch."""
    if T.group == "pgl":
        pi, c = _ref_lift(T, pi, c)
    F, E, q, n = T.ctx.field, T.ctx.ext, T.q, T.n

    def base_pow(a, x):
        return (a * F.dlog(x) * (q + 1)) % n

    def ext_pow(a, lam):
        return (a * E.dlog(lam)) % n

    kind, ck = pi.kind, c.kind
    if kind == "linear":
        (a,) = pi.params
        if ck in ("central", "unipotent"):
            return _ref_merge([(1, base_pow(2 * a, c.params[0]))])
        if ck == "diagonal":
            return _ref_merge([(1, base_pow(a, F.mul(*c.params)))])
        return _ref_merge([(1, base_pow(a, E.norm(c.params[0])))])
    if kind == "principal":
        a, b = pi.params
        if ck == "central":
            return _ref_merge([(q + 1, base_pow(a + b, c.params[0]))])
        if ck == "unipotent":
            return _ref_merge([(1, base_pow(a + b, c.params[0]))])
        if ck == "diagonal":
            x, y = c.params
            return _ref_merge([
                (1, (base_pow(a, x) + base_pow(b, y)) % n),
                (1, (base_pow(a, y) + base_pow(b, x)) % n),
            ])
        return ()
    if kind == "steinberg":
        (a,) = pi.params
        if ck == "central":
            return _ref_merge([(q, base_pow(2 * a, c.params[0]))])
        if ck == "unipotent":
            return ()
        if ck == "diagonal":
            return _ref_merge([(1, base_pow(a, F.mul(*c.params)))])
        return _ref_merge([(-1, base_pow(a, E.norm(c.params[0])))])
    (a,) = pi.params  # cuspidal
    if ck == "central":
        return _ref_merge([(q - 1, ext_pow(a, E.embed(c.params[0])))])
    if ck == "unipotent":
        return _ref_merge([(-1, ext_pow(a, E.embed(c.params[0])))])
    if ck == "diagonal":
        return ()
    lam = c.params[0]
    return _ref_merge([(-1, ext_pow(a, lam)), (-1, ext_pow(a, E.frobenius(lam)))])


def reference_grid(T):
    return [[reference_cell(T, pi, c) for c in T.ctx.classes] for pi in T.irreps]


@pytest.mark.parametrize(
    "g,q", [("gl", q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]
    + [("pgl", q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)],
)
def test_cells_equal_reference(g, q):
    T = CharacterTable(context(g, q))
    assert [T.row(pi) for pi in T.irreps] == [tuple(r) for r in reference_grid(T)]


def test_cells_read_without_field_calls(monkeypatch):
    """After the contexts are built, every cell and every induced trace is
    integer arithmetic on the class dlogs: no field method is called."""
    from gl2zeta.ffield import ExtField, Field
    from gl2zeta.topo import CentralizerData

    tables = {g: CharacterTable(context(g, 9)) for g in ("gl", "pgl")}
    want = {g: reference_grid(T) for g, T in tables.items()}
    gl = tables["gl"]
    hosts = {c.kind: c for c in gl.ctx.classes}.values()  # one per centralizer structure
    want_induced = [
        [CentralizerData(gl, h).induced_column(c) for c in gl.ctx.classes] for h in hosts
    ]

    def forbidden(*args):
        raise AssertionError("field method called after construction")

    for cls, names in ((Field, ("dlog", "mul")),
                       (ExtField, ("dlog", "norm", "embed", "frobenius"))):
        for name in names:
            monkeypatch.setattr(cls, name, forbidden)
    with pytest.raises(AssertionError):
        gl.ctx.field.dlog(1)
    for g, T in tables.items():
        T = CharacterTable(T.ctx)
        assert [T.row(pi) for pi in T.irreps] == [tuple(r) for r in want[g]]
        for ci, c in enumerate(T.ctx.classes):
            assert T.value(T.irreps[-1], c) == CycNumber.from_monomials(T.n, want[g][-1][ci])
    got_induced = [
        [CentralizerData(gl, h).induced_column(c) for c in gl.ctx.classes] for h in hosts
    ]
    assert got_induced == want_induced


def test_irrep_counts_and_dims():
    for q in ALL_Q:
        T = char_table("gl", q)
        by_kind = Counter(pi.kind for pi in T.irreps)
        assert by_kind["linear"] == q - 1
        assert by_kind["principal"] == (q - 1) * (q - 2) // 2
        assert by_kind["steinberg"] == q - 1
        assert by_kind["cuspidal"] == q * (q - 1) // 2
        assert sum(d * d for d in T.dims) == T.order
        assert len(T.irreps) == len(T.ctx.classes)


def test_small_dimension_lists():
    assert sorted(char_table("gl", 2).dims) == [1, 1, 2]  # S3
    assert sorted(char_table("gl", 3).dims) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert sorted(char_table("pgl", 3).dims) == [1, 1, 2, 3, 3]  # S4
    assert sorted(char_table("pgl", 2).dims) == [1, 1, 2]


def test_pgl_irrep_lists():
    for q in ALL_Q:
        T = char_table("pgl", q)
        by_kind = Counter(pi.kind for pi in T.irreps)
        if q % 2:
            assert by_kind["linear"] == 2
            assert by_kind["principal"] == (q - 3) // 2
            assert by_kind["steinberg"] == 2
            assert by_kind["cuspidal"] == (q - 1) // 2
        else:
            assert by_kind["linear"] == 1
            assert by_kind["principal"] == (q - 2) // 2
            assert by_kind["steinberg"] == 1
            assert by_kind["cuspidal"] == q // 2
        assert sum(d * d for d in T.dims) == T.order


PRIME_POWERS_TO_49 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                      37, 41, 43, 47, 49]


def legacy_irreps(g, q, ext):
    """The irrep list as it was enumerated kind by kind, PGL through the
    character orbits {mu, mu^-1} and {nu, nu^-1}."""
    ne = q * q - 1
    out = []
    if g == "gl":
        out += [Irrep("gl", "linear", (a,)) for a in range(q - 1)]
        for a in range(q - 1):
            for b in range(a + 1, q - 1):
                out.append(Irrep("gl", "principal", (a, b)))
        out += [Irrep("gl", "steinberg", (a,)) for a in range(q - 1)]
        seen = set()
        for a in range(ne):
            if a % (q + 1) == 0 or a in seen:  # non-primitive or already seen
                continue
            seen.update({a, (a * q) % ne})
            out.append(Irrep("gl", "cuspidal", (a,)))
        return out
    quadratic = [0] + ([(q - 1) // 2] if q % 2 else [])
    out += [Irrep("pgl", "linear", (a,)) for a in quadratic]
    out += [Irrep("pgl", "principal", (o.rep.exponent,)) for o in enumerate_M(ext)]
    out += [Irrep("pgl", "steinberg", (a,)) for a in quadratic]
    out += [Irrep("pgl", "cuspidal", (o.rep.exponent,)) for o in enumerate_N(ext)]
    return out


@pytest.mark.parametrize("q", PRIME_POWERS_TO_49)
def test_irreps_equal_legacy_enumeration(q):
    """Orbit representatives in today's order: irrep labels (CLI specs and the
    benchmark's pool labels) name the same irreps as before."""
    from gl2zeta.cli import irrep_label

    for g in ("gl", "pgl"):
        T = char_table(g, q)
        want = legacy_irreps(g, q, T.ctx.ext)
        assert T.irreps == want
        assert [irrep_label(T, pi) for pi in T.irreps] == [irrep_label(T, pi) for pi in want]


def _by_power(monomial_lists):
    return tuple(tuple(sorted(monos, key=lambda ck: ck[1])) for monos in monomial_lists)


@pytest.mark.parametrize(
    "g,q", [("gl", q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]
    + [("pgl", q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)],
)
def test_dual_and_twist_rows(g, q):
    """Cell by cell on monomial tuples: row(pi*) = conj row(pi), and
    row(chi_a (x) pi)[c] = zeta^(a dlog det(c) (q+1)) row(pi)[c] for every
    chi_a o det of the group (PGL: chi_a^2 = 1)."""
    from gl2zeta.grp import mat_det
    from gl2zeta.reptheory import conjugate

    T = char_table(g, q)
    F, n = T.ctx.field, T.n
    det_power = [F.dlog(mat_det(F, m)) * (q + 1) for m in T.ctx.reps]
    twists = [a for a in range(q - 1) if g == "gl" or 2 * a % (q - 1) == 0]
    for pi in T.irreps:
        row = T.row(pi)
        assert T.row(T.contragredient(pi)) == _by_power(conjugate(row, n))
        for a in twists:
            want = [[(c, (k + a * dk) % n) for c, k in monos] for monos, dk in zip(row, det_power)]
            assert T.row(T.tensor_with_linear(a, pi)) == _by_power(want)


def test_cuspidal_dual_mutant_fails_fs_check(monkeypatch):
    """A contragredient that fixes every cuspidal makes FS = [pi = pi*] wrong,
    and the defining-sum check sees it."""
    from gl2zeta.verify import CHECKS, _Session

    check = next(fn for fn in CHECKS if fn._check_name == "frobenius-schur-rules-vs-defining-sum")
    check(_Session(5))
    real = CharacterTable.contragredient
    monkeypatch.setattr(
        CharacterTable, "contragredient",
        lambda self, pi: pi if pi.kind == "cuspidal" else real(self, pi),
    )
    with pytest.raises(AssertionError):
        check(_Session(5))


def test_identity_column_is_dimension():
    for q in (2, 3, 4, 5):
        for g in ("gl", "pgl"):
            T = char_table(g, q)
            ide = T.ctx.classes[0]
            for pi in T.irreps:
                assert T.value(pi, ide).as_rational() == T.dim(pi)


def test_gl_table_entries():
    """Spot checks straight from the displayed character table."""
    q = 5
    T = char_table("gl", q)
    ctx = T.ctx
    F, E = ctx.field, ctx.ext
    n = T.n
    for a in range(q - 1):
        mu = MulChar(q - 1, a)
        lin = Irrep("gl", "linear", (a,))
        st = Irrep("gl", "steinberg", (a,))
        for c in ctx.classes:
            if c.kind == "central":
                x = c.params[0]
                k = value_power(mu.pow(2), x, E)
                assert T.value(lin, c) == CycNumber(n, {k: 1})
                assert T.value(st, c) == CycNumber(n, {k: q})
            elif c.kind == "unipotent":
                assert T.value(st, c).is_zero()
            elif c.kind == "diagonal":
                x, y = c.params
                want = CycNumber(n, {value_power(mu, F.mul(x, y), E): 1})
                assert T.value(lin, c) == want
                assert T.value(st, c) == want
            else:
                lam = c.params[0]
                k = value_power(mu, E.norm(lam), E)
                assert T.value(lin, c) == CycNumber(n, {k: 1})
                assert T.value(st, c) == CycNumber(n, {k: -1})
    # principal on a split class: mu1(x)mu2(y) + mu1(y)mu2(x)
    pi = next(p for p in T.irreps if p.kind == "principal")
    m1 = MulChar(q - 1, pi.params[0])
    m2 = MulChar(q - 1, pi.params[1])
    for c in ctx.classes:
        if c.kind == "diagonal":
            x, y = c.params
            want = CycNumber.from_monomials(
                n,
                [
                    (1, (value_power(m1, x, E) + value_power(m2, y, E)) % n),
                    (1, (value_power(m1, y, E) + value_power(m2, x, E)) % n),
                ],
            )
            assert T.value(pi, c) == want
        elif c.kind == "elliptic":
            assert T.value(pi, c).is_zero()
    # cuspidal: -nu(lam) - nu(conj lam) on elliptic, 0 on split
    cu = next(p for p in T.irreps if p.kind == "cuspidal")
    nu = MulChar(q * q - 1, cu.params[0])
    for c in ctx.classes:
        if c.kind == "elliptic":
            lam = c.params[0]
            want = CycNumber.from_monomials(
                n,
                [
                    (-1, value_power(nu, lam, E)),
                    (-1, value_power(nu, E.frobenius(lam), E)),
                ],
            )
            assert T.value(cu, c) == want
        elif c.kind == "diagonal":
            assert T.value(cu, c).is_zero()


def test_pgl_table_odd_q_matches_displayed_form():
    """Hard-coded displayed table for odd q: rows chi_1, chi_eps, I(mu,1),
    St, St_eps, C_nu on identity/unipotent/diag(x,1)/elliptic."""
    q = 5
    T = char_table("pgl", q)
    ctx = T.ctx
    F, E = ctx.field, ctx.ext
    from gl2zeta.chars import epsilon_value

    n = T.n
    for c in ctx.classes:
        for pi in T.irreps:
            got = T.value(pi, c)
            if c.kind == "identity":
                want = rational(n, T.dim(pi))
            elif c.kind == "unipotent":
                want = rational(
                    n,
                    {"linear": 1, "principal": 1, "steinberg": 0, "cuspidal": -1}[
                        pi.kind
                    ],
                )
            elif c.kind == "diagonal":
                x = c.params[0]
                if pi.kind == "linear":
                    want = rational(
                        n, 1 if pi.params[0] == 0 else epsilon_value(E, x)
                    )
                elif pi.kind == "principal":
                    mu = MulChar(q - 1, pi.params[0])
                    want = CycNumber.from_monomials(
                        n,
                        [
                            (1, value_power(mu, x, E)),
                            (1, value_power(mu.inv(), x, E)),
                        ],
                    )
                elif pi.kind == "steinberg":
                    want = rational(
                        n, 1 if pi.params[0] == 0 else epsilon_value(E, x)
                    )
                else:
                    want = CycNumber(n)
            else:
                lam = c.params[0]
                eps_norm = epsilon_value(E, E.norm(lam))
                if pi.kind == "linear":
                    want = rational(
                        n, 1 if pi.params[0] == 0 else eps_norm
                    )
                elif pi.kind == "principal":
                    want = CycNumber(n)
                elif pi.kind == "steinberg":
                    want = rational(
                        n, -1 if pi.params[0] == 0 else -eps_norm
                    )
                else:
                    nu = MulChar(q * q - 1, pi.params[0])
                    want = CycNumber.from_monomials(
                        n,
                        [
                            (-1, value_power(nu, lam, E)),
                            (-1, value_power(nu, E.frobenius(lam), E)),
                        ],
                    )
            assert got == want, (pi, c)


def test_pgl_table_even_q_matches_displayed_form():
    q = 4
    T = char_table("pgl", q)
    ctx = T.ctx
    E = ctx.ext
    n = T.n
    for c in ctx.classes:
        for pi in T.irreps:
            got = T.value(pi, c)
            if c.kind == "identity":
                want = rational(n, T.dim(pi))
            elif c.kind == "unipotent":
                want = rational(
                    n,
                    {"linear": 1, "principal": 1, "steinberg": 0, "cuspidal": -1}[
                        pi.kind
                    ],
                )
            elif c.kind == "diagonal":
                x = c.params[0]
                if pi.kind == "principal":
                    mu = MulChar(q - 1, pi.params[0])
                    want = CycNumber.from_monomials(
                        n,
                        [(1, value_power(mu, x, E)), (1, value_power(mu.inv(), x, E))],
                    )
                elif pi.kind == "cuspidal":
                    want = CycNumber(n)
                else:
                    want = rational(n, 1)
            else:
                lam = c.params[0]
                assert E.norm(lam) == 1  # canonical norm-1 representative
                if pi.kind == "linear":
                    want = rational(n, 1)
                elif pi.kind == "principal":
                    want = CycNumber(n)
                elif pi.kind == "steinberg":
                    want = rational(n, -1)
                else:
                    nu = MulChar(q * q - 1, pi.params[0])
                    want = CycNumber.from_monomials(
                        n,
                        [
                            (-1, value_power(nu, lam, E)),
                            (-1, value_power(nu, E.frobenius(lam), E)),
                        ],
                    )
            assert got == want, (pi, c)


def test_char_value_independent_of_orbit_representative():
    for q in (3, 4, 5):
        T = char_table("gl", q)
        ctx = T.ctx
        E = ctx.ext
        ne = q * q - 1
        for pi in T.irreps:
            if pi.kind == "principal":
                a, b = pi.params
                alt_pi = Irrep("gl", "principal", (b, a))
            elif pi.kind == "cuspidal":
                alt_pi = Irrep("gl", "cuspidal", ((pi.params[0] * q) % ne,))
            else:
                continue
            for c, d in zip(ctx.classes, ctx.dlogs):
                alt = T._monomials(alt_pi, c.kind, d)
                assert CycNumber.from_monomials(T.n, alt) == T.value(pi, c)
        # class side: elliptic lam vs conj(lam) = lam^q, and a diagonal (x, y) vs (y, x)
        for c, d in zip(ctx.classes, ctx.dlogs):
            if c.kind == "elliptic":
                assert E.dlog(E.frobenius(c.params[0])) == (d[0] * q) % ne
                alt_d = ((d[0] * q) % ne,)
            elif c.kind == "diagonal":
                alt_d = d[::-1]
            else:
                continue
            for pi in T.irreps:
                alt = T._monomials(pi, c.kind, alt_d)
                assert CycNumber.from_monomials(T.n, alt) == T.value(pi, c)


def _naive_monomial_sum(n, weights, factor_lists):
    total = {}
    for t, w in enumerate(weights):
        term = cyc_product(n, [(w, 0)], *(factors[t] for factors in factor_lists))
        for k, c in term.items():
            total[k] = total.get(k, 0) + c
    return CycNumber(n, total)


@pytest.mark.parametrize("g,q", [("gl", 3), ("gl", 4), ("pgl", 5)])
def test_monomial_sum_matches_naive_products(g, q):
    T = char_table(g, q)
    # rational weights with a zero at every third term
    irrep_weights = [Fraction(t % 3, 1 + t % 4) for t in range(len(T.irreps))]
    class_weights = [Fraction(t % 3, 1 + t % 4) for t in range(len(T.ctx.classes))]
    columns = [T.column(c) for c in T.ctx.classes[-3:]]  # elliptic: empty on principal
    rows = [T.row(pi) for pi in T.irreps[-3:]]  # cuspidal: empty on diagonal
    assert any(() in f for f in columns) and any(() in f for f in rows)
    for r in range(4):
        for weights, factor_lists in ((irrep_weights, columns[:r]), (class_weights, rows[:r])):
            assert 0 in weights
            got = monomial_sum(T.n, weights, factor_lists)
            assert got == _naive_monomial_sum(T.n, weights, factor_lists), (r, weights)
    assert monomial_sum(T.n, irrep_weights, []) == sum(irrep_weights)


def test_rational_sum_matches_monomial_sum():
    T = char_table("gl", 4)
    cols = [T.column(c) for c in T.ctx.classes[-2:]]
    nirr = len(T.irreps)
    # weights that depend on the dimension only keep every sum rational
    for weights in (
        [Fraction(d + 2, 7 - d) for d in T.dims],  # Fractions
        [d - 3 for d in T.dims],  # ints, zero on dimension 3
        [0] * nirr,
        [Fraction(1, d) if d % 2 else d for d in T.dims],  # mixed
    ):
        for r in range(3):
            got = rational_sum(T.n, weights, cols[:r])
            assert isinstance(got, Fraction)
            assert got == monomial_sum(T.n, weights, cols[:r]).as_rational()
    # one elliptic value of a cuspidal irrep is not rational
    cusp = T.irreps.index(next(pi for pi in T.irreps if pi.kind == "cuspidal"))
    picked = [1 if t == cusp else 0 for t in range(nirr)]
    assert monomial_sum(T.n, picked, cols[:1]).as_rational() is None
    with pytest.raises(ArithmeticError):
        rational_sum(T.n, picked, cols[:1])
    with pytest.raises(ArithmeticError):
        rational_sum(8, [Fraction(1, 2)], [[((1, 1),)]])


def _count_monomials(monkeypatch) -> list:
    calls = [0]
    original = CharacterTable._monomials

    def counted(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(CharacterTable, "_monomials", counted)
    return calls


@pytest.mark.parametrize("g,q", [("gl", 5), ("gl", 16), ("pgl", 9)])
def test_table_construction_builds_no_cell(monkeypatch, g, q):
    calls = _count_monomials(monkeypatch)
    T = CharacterTable(context(g, q))
    assert calls[0] == 0
    assert len(T.dims) == len(T.fs) == len(T.irrep_index) == len(T.ctx.classes)


@pytest.mark.parametrize("g,q", [("gl", 7), ("pgl", 9)])
def test_zeta_insert_builds_one_column_per_insertion(monkeypatch, g, q):
    calls = _count_monomials(monkeypatch)
    T = CharacterTable(context(g, q))
    classes = [c for c in T.ctx.classes if c.kind in ("diagonal", "elliptic")]
    built = 0
    for r in (1, 2, 3):
        insertions = classes[built : built + r]
        zeta_insert(T, insertions, 1)
        assert calls[0] == (built + r) * len(T.irreps)
        zeta_insert(T, insertions, 2)  # memoised: no new cell
        assert calls[0] == (built + r) * len(T.irreps)
        built += r


@pytest.mark.parametrize("g,q", [("gl", q) for q in ALL_Q] + [("pgl", q) for q in ALL_Q[1:]])
def test_lazy_cells_equal_monomial_grid(g, q):
    ctx = context(g, q)
    grid = reference_grid(CharacterTable(ctx))
    for rows_first in (True, False):
        T = CharacterTable(ctx)
        for _ in range(2):  # the second pass reads the memoised tuples
            if rows_first:
                rows = [T.row(pi) for pi in T.irreps]
                cols = [T.column(c) for c in ctx.classes]
            else:
                cols = [T.column(c) for c in ctx.classes]
                rows = [T.row(pi) for pi in T.irreps]
            assert all(isinstance(x, tuple) for x in rows + cols)
            assert rows == [tuple(r) for r in grid]
            assert cols == [tuple(r[ci] for r in grid) for ci in range(len(ctx.classes))]
        for i, pi in enumerate(T.irreps):
            for ci, c in enumerate(ctx.classes):
                assert T.value(pi, c) == CycNumber.from_monomials(T.n, grid[i][ci])


def test_lazy_table_shared_across_threads():
    ctx = context("gl", 7)
    want_rows = [tuple(r) for r in reference_grid(CharacterTable(ctx))]
    want_cols = [tuple(r[ci] for r in want_rows) for ci in range(len(ctx.classes))]
    T = CharacterTable(ctx)
    results = []

    def read(k):
        # each thread starts at its own index; odd threads walk forwards, even backwards
        order = list(range(len(T.irreps)))[k:] + list(range(len(T.irreps)))[:k]
        for i in order if k % 2 else reversed(order):
            assert T.row(T.irreps[i]) == want_rows[i]
            assert T.column(ctx.classes[i]) == want_cols[i]
        results.append(k)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(6))


@pytest.mark.parametrize("q", ALL_Q)
@pytest.mark.parametrize("g", ["gl", "pgl"])
def test_row_orthogonality(g, q):
    T = char_table(g, q)
    ctx = T.ctx
    n = T.n
    nirr = len(T.irreps)
    rows = [T.row(pi) for pi in T.irreps]
    for i in range(nirr):
        for j in range(i, nirr):
            acc = {}
            for ci in range(len(ctx.classes)):
                w = ctx.sizes[ci]
                for c1, k1 in rows[i][ci]:
                    for c2, k2 in rows[j][ci]:
                        k = (k1 - k2) % n
                        acc[k] = acc.get(k, 0) + w * c1 * c2
            got = CycNumber(n, {k: Fraction(c, T.order) for k, c in acc.items()}).as_rational()
            assert got == (1 if i == j else 0)


@pytest.mark.parametrize("q", ALL_Q)
@pytest.mark.parametrize("g", ["gl", "pgl"])
def test_column_orthogonality(g, q):
    T = char_table(g, q)
    ctx = T.ctx
    n = T.n
    ncls = len(ctx.classes)
    cols = [T.column(c) for c in ctx.classes]
    for a in range(ncls):
        for b in range(a, ncls):
            acc = {}
            for i in range(len(T.irreps)):
                for c1, k1 in cols[a][i]:
                    for c2, k2 in cols[b][i]:
                        k = (k1 - k2) % n
                        acc[k] = acc.get(k, 0) + c1 * c2
            got = CycNumber(n, acc).as_rational()
            want = Fraction(T.order, ctx.sizes[a]) if a == b else Fraction(0)
            assert got == want


@pytest.mark.parametrize("q", ALL_Q)
def test_fs_rules_match_defining_sum(q):
    for g in ("gl", "pgl"):
        T = char_table(g, q)
        for pi in T.irreps:
            rule = T.fs_indicator(pi)
            assert rule in (0, 1)  # -1 never occurs
            assert rule == T.fs_defining_sum(pi)
            if g == "pgl":
                assert rule == 1


def test_fs_examples():
    T = char_table("gl", 3)
    assert T.fs_indicator(Irrep("gl", "linear", (0,))) == 1
    # cuspidal with nontrivial restriction -> 0
    cusp = next(
        pi for pi in T.irreps if pi.kind == "cuspidal" and pi.params[0] % 2 == 1
    )
    assert T.fs_indicator(cusp) == 0
    # I(1, eps) -> +1 (q odd)
    assert T.fs_indicator(Irrep("gl", "principal", (0, 1))) == 1


@pytest.mark.parametrize("q", ALL_Q)
def test_involution_dimension_identity(q):
    T = char_table("gl", q)
    t = q * q - 1 if q % 2 == 0 else q * q + q + 1
    assert 1 + t == sum(
        d for d, pi in zip(T.dims, T.irreps) if T.fs_indicator(pi) != 0
    )


def test_fs_element_level_small_q():
    for g, q in (("gl", 2), ("gl", 3), ("pgl", 3), ("gl", 4), ("pgl", 5)):
        T = char_table(g, q)
        table = group_table(g, q)
        for pi in T.irreps:
            assert brute_fs(table, T, pi) == T.fs_indicator(pi)


def test_contragredient():
    for g, q in (("gl", 3), ("gl", 4), ("gl", 5), ("pgl", 3), ("pgl", 4)):
        T = char_table(g, q)
        for pi in T.irreps:
            cg = T.contragredient(pi)
            assert cg in T.irrep_index
            assert T.contragredient(cg) == pi
            for c, monos in zip(T.ctx.classes, T.row(pi)):
                assert T.value(cg, c) == CycNumber.from_monomials(T.n, [(a, -k) for a, k in monos])
    T = char_table("gl", 3)
    assert T.contragredient(Irrep("gl", "linear", (0,))) == Irrep("gl", "linear", (0,))
    assert T.contragredient(Irrep("gl", "steinberg", (1,))) == Irrep(
        "gl", "steinberg", (1,)
    )


def test_pgl_values_equal_gl_values_on_lifts():
    """A PGL irrep is a GL irrep trivial on the centre, so its value on a class
    is the GL value on any lift of the class representative."""
    for q in (3, 4, 5, 7, 8):
        P = char_table("pgl", q)
        G = char_table("gl", q)
        for pi in P.irreps:
            params = pi.params
            if pi.kind == "principal":  # I(mu, mu^-1)
                params = tuple(sorted((params[0], -params[0] % (q - 1))))
            gl_pi = Irrep("gl", pi.kind, params)
            assert gl_pi in G.irrep_index
            for c in P.ctx.classes:
                gl_c = G.ctx.classify(P.ctx.representative(c))
                assert P.value(pi, c) == G.value(gl_pi, gl_c)


# -- fusion ------------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 4, 5])
def test_fusion_closed_forms_exhaustive(q):
    T = char_table("gl", q)
    irr = T.irreps
    for i in range(len(irr)):
        for j in range(i, len(irr)):
            for k in range(j, len(irr)):
                got = T.triple_bracket(irr[i], irr[j], irr[k])
                assert got.denominator == 1 and got >= 0
                assert got == T.reduced_bracket(irr[i], irr[j], irr[k])


def test_fusion_element_level_oracle_q3():
    T = char_table("gl", 3)
    table = group_table("gl", 3)
    irr = T.irreps
    for i in range(len(irr)):
        for j in range(i, len(irr)):
            for k in range(j, len(irr)):
                assert T.triple_bracket(irr[i], irr[j], irr[k]) == brute_fusion(
                    table, T, irr[i], irr[j], irr[k]
                )


def test_pair_bracket_closed_forms():
    for g, q in [("gl", q) for q in (3, 4, 5)] + [("pgl", q) for q in (3, 4, 5, 7)]:
        T = char_table(g, q)
        irr = T.irreps
        for p1 in irr:
            for p2 in irr:
                assert T.pair_bracket(p1, p2) == T.closed_form_pair(p1, p2)
                # orthogonality reading: <pi pi'> = [pi' = contragredient pi]
                assert T.closed_form_pair(p1, p2) == (
                    1 if p2 == T.contragredient(p1) else 0
                )


def test_steinberg_cube():
    for q in (2, 3, 4, 5):
        T = char_table("gl", q)
        st = Irrep("gl", "steinberg", (0,))
        assert T.triple_bracket(st, st, st) == 1


def test_cuspidal_cube_q3_element_sum():
    T = char_table("gl", 3)
    table = group_table("gl", 3)
    cu = next(pi for pi in T.irreps if pi.kind == "cuspidal" and pi.params[0] % 2 == 0)
    got = T.triple_bracket(cu, cu, cu)
    assert got == brute_fusion(table, T, cu, cu, cu)


def test_bracket_symmetry():
    T = char_table("gl", 4)
    irr = T.irreps
    import random

    rng = random.Random(2)
    for _ in range(40):
        a, b, c = rng.choice(irr), rng.choice(irr), rng.choice(irr)
        v = T.triple_bracket(a, b, c)
        assert v == T.triple_bracket(b, a, c) == T.triple_bracket(c, b, a)


def test_closed_form_triple_rejects_linear():
    T = char_table("gl", 3)
    lin = Irrep("gl", "linear", (0,))
    st = Irrep("gl", "steinberg", (0,))
    with pytest.raises(ValueError):
        T.closed_form_triple(lin, st, st)
    # the reduction helper handles it
    assert T.reduced_bracket(lin, st, st) == T.triple_bracket(lin, st, st)


def test_last_two_bracket_families_are_zero_or_one():
    """The St-C-C and C-C-C closed forms carry minus signs but must land
    in {0,1}; checked exhaustively (the formulas assert it as well)."""
    for q in (3, 4, 5):
        T = char_table("gl", q)
        sts = [p for p in T.irreps if p.kind == "steinberg"]
        cus = [p for p in T.irreps if p.kind == "cuspidal"]
        for s in sts:
            for c1 in cus:
                for c2 in cus:
                    assert T.closed_form_triple(s, c1, c2) in (0, 1)
        for c1 in cus:
            for c2 in cus:
                for c3 in cus:
                    assert T.closed_form_triple(c1, c2, c3) in (0, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fusion_dimension_identity(q):
    T = char_table("gl", q)
    irr = T.irreps
    for i in range(len(irr)):
        for j in range(i, len(irr)):
            total = sum(
                T.fusion_coeff(irr[i], irr[j], irr[k]) * T.dims[k]
                for k in range(len(irr))
            )
            assert total == T.dims[i] * T.dims[j]


def test_tensor_with_linear_is_permutation():
    for q in (3, 4, 5):
        T = char_table("gl", q)
        for a in range(q - 1):
            lin = Irrep("gl", "linear", (a,))
            for pi in T.irreps:
                twist = T.tensor_with_linear(a, pi)
                assert twist in T.irrep_index
                for rho in T.irreps:
                    coeff = T.fusion_coeff(lin, pi, rho)
                    assert coeff == (1 if rho == twist else 0)
