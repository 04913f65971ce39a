"""Named verification suite: every identity the package implements, checked
at one q, with a machine-readable pass/fail/skip status per formula.

A check is skipped (not failed) when the enumeration it needs exceeds the
active cap; --deep raises the caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement

from . import topo
from .zeta import (
    zeta as zeta_sum,
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
from .cyclo import CycNumber
from .ffield import CapExceeded
from .grp import GLContext, PGLContext, mat_mul
from .oracle import CAYLEY_TABLE_CAP, DEFAULT_ELEMENT_CAP, GroupTable
from .oracle import brute_hom_count, brute_quotient_count
from .reptheory import CharacterTable, conjugate, monomial_sum, rational_sum
from .topo import SurfaceSpec, hom_count, quotient_count


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    note: str = ""


class _Session:
    def __init__(self, q: int, deep: bool = False):
        self.q = q
        self.deep = deep
        self.cap = DEFAULT_ELEMENT_CAP * (16 if deep else 1)
        self.gl = CharacterTable(GLContext(q))
        self.pgl = CharacterTable(PGLContext(q))
        self._tables: dict[str, GroupTable] = {}

    def tables(self):
        return (self.gl, self.pgl)

    def group_table(self, kind: str) -> GroupTable:
        if kind not in self._tables:
            ctx = self.gl.ctx if kind == "gl" else self.pgl.ctx
            self._tables[kind] = GroupTable(ctx, cap=self.cap)
        return self._tables[kind]


def _check(name):
    def wrap(fn):
        fn._check_name = name
        return fn

    return wrap


@_check("field-extension-structure")
def check_field(s: _Session) -> str:
    E = s.gl.ctx.ext
    F = E.base
    q = s.q
    from collections import Counter

    for lam in E.elements():
        fr = E.frobenius(lam)
        assert fr == E._pow_raw(lam, q)
        assert E.frobenius(fr) == lam
        assert (fr == lam) == E.in_base(lam)
    cnt = Counter(E.norm(l) for l in E.elements() if l)
    assert all(v == q + 1 for v in cnt.values()) and len(cnt) == q - 1
    if q % 2 == 0:
        image = {F.add(F.mul(x, x), x) for x in F.elements()}
        assert len(image) == q // 2
    return "frobenius involution, norm fibers of size q+1, Artin-Schreier image"


@_check("dlog-homomorphism")
def check_dlog(s: _Session) -> str:
    F = s.gl.ctx.field
    q = s.q
    for x in range(1, q):
        for y in range(1, q):
            assert (F.dlog(F.mul(x, y)) - F.dlog(x) - F.dlog(y)) % (q - 1) == 0
    return "dlog(xy) = dlog(x) + dlog(y) mod q-1"


# The character sums below read mu_a(x) = zeta^(a dlog_F(x) (q+1)) for the
# characters of F_q^x and nu_a(lam) = zeta^(a dlog_E(lam)) for those of
# F_{q^2}^x, zeta a primitive (q^2-1)-th root of unity.


@_check("base-character-orthogonality")
def check_char_orth(s: _Session) -> str:
    E = s.gl.ctx.ext
    q = s.q
    n = E.order - 1
    for x in range(1, q):
        k = E.base.dlog(x) * (q + 1)
        total = CycNumber.from_monomials(n, [(1, a * k) for a in range(q - 1)])
        assert total.as_rational() == ((q - 1) if x == 1 else 0)
    return "sum of mu(x) over characters = (q-1) [x=1]"


@_check("character-pair-sum-identity")
def check_pair_identity(s: _Session) -> str:
    E = s.gl.ctx.ext
    F = E.base
    q = s.q
    n = E.order - 1
    for x in range(1, q):
        k = F.dlog(x) * (q + 1)
        monos = [(1, (a + b) * k) for a in range(q - 1) for b in range(a + 1, q - 1)]
        got = CycNumber.from_monomials(n, monos).as_rational()
        want = Fraction((q - 1) ** 2, 2) * (x == 1) - Fraction(q - 1, 2) * (
            F.mul(x, x) == 1
        )
        assert got == want
    return "pair sum = (q-1)^2/2 [x=1] - (q-1)/2 [x^2=1]"


@_check("galois-orbit-character-sum-identity")
def check_orbit_identity(s: _Session) -> str:
    E = s.gl.ctx.ext
    F = E.base
    q = s.q
    n = E.order - 1
    # the GL cuspidal parameters: one primitive nu from each orbit {nu, nu^q}
    orbits = [pi.params[0] for pi in s.gl.irreps if pi.kind == "cuspidal"]
    for x in range(1, q):
        k = E.dlog(E.embed(x))
        got = CycNumber.from_monomials(n, [(1, a * k) for a in orbits]).as_rational()
        want = Fraction(q * q - 1, 2) * (x == 1) - Fraction(q - 1, 2) * (
            F.mul(x, x) == 1
        )
        assert got == want
    return "orbit sum = (q^2-1)/2 [x=1] - (q-1)/2 [x^2=1]"


@_check("cuspidal-restriction-sum-identity")
def check_N_identity(s: _Session) -> str:
    from .chars import epsilon_E_value

    E = s.gl.ctx.ext
    q = s.q
    n = E.order - 1
    # the PGL cuspidal parameters: one nu from each orbit {nu, nu^-1} of
    # primitive characters trivial on F_q^x
    N = [pi.params[0] for pi in s.pgl.irreps if pi.kind == "cuspidal"]
    for lam in E.elements():
        if lam == 0:
            continue
        k, kq = E.dlog(lam), E.dlog(E.frobenius(lam))
        monos = [(1, a * k) for a in N] + [(1, a * kq) for a in N]
        got = CycNumber.from_monomials(n, monos).as_rational()
        want = (q + 1) * E.in_base(lam) - 1
        if q % 2:
            want -= epsilon_E_value(E, lam)
        assert got == want
    return "sum over N of nu(l) + nu(conj l) = (q+1)phi_F - 1 [- eps_E, q odd]"


@_check("class-equation")
def check_class_equation(s: _Session) -> str:
    for T in s.tables():
        assert sum(T.ctx.sizes) == T.ctx.order
        for c in T.ctx.classes:
            assert T.ctx.classify(T.ctx.representative(c)) == c
    q = s.q
    assert len(s.gl.ctx.classes) == q * q - 1
    assert len(s.pgl.ctx.classes) == (q + 2 if q % 2 else q + 1)
    return "class sizes sum to |G|; class counts match"


@_check("involution-count")
def check_involutions(s: _Session) -> str:
    q = s.q
    ctx = s.gl.ctx
    F = ctx.field
    ide = (1, 0, 0, 1)
    # k^2 = e is a class property: count classes whose representative squares
    # to the identity
    t = sum(
        ctx.sizes[ci]
        for ci, c in enumerate(ctx.classes)
        if mat_mul(F, ctx.representative(c), ctx.representative(c)) == ide
    ) - 1
    assert t == (q * q - 1 if q % 2 == 0 else q * q + q + 1)
    # 1 + t equals the dimension sum over irreps with nonzero indicator
    dimsum = sum(d for d, fs in zip(s.gl.dims, s.gl.fs) if fs)
    assert 1 + t == dimsum
    if ctx.order <= s.cap:
        table = s.group_table("gl")
        idc = table.ctx.classes[table.class_of[table.identity]]
        assert table.theta_square()(idc) == 1 + t
    return "t = q^2-1 (q even) / q^2+q+1 (q odd); 1 + t = sum of real-irrep dims"


@_check("character-table-orthogonality")
def check_orthogonality(s: _Session) -> str:
    for T in s.tables():
        ctx = T.ctx
        n = T.n
        rows = [T.row(pi) for pi in T.irreps]
        conj_rows = [conjugate(row, n) for row in rows]
        nirr = len(T.irreps)
        for i in range(nirr):
            for j in range(i, nirr):
                got = monomial_sum(n, ctx.sizes, [rows[i], conj_rows[j]])
                assert got == (T.order if i == j else 0)
        cols = [T.column(c) for c in ctx.classes]
        conj_cols = [conjugate(col, n) for col in cols]
        ones = [1] * nirr
        ncls = len(ctx.classes)
        for a in range(ncls):
            for b in range(a, ncls):
                got = monomial_sum(n, ones, [cols[a], conj_cols[b]])
                want = Fraction(T.order, ctx.sizes[a]) if a == b else 0
                assert got == want
    return "row and column orthogonality, both groups, exact"


@_check("sum-of-squared-dimensions")
def check_burnside_dims(s: _Session) -> str:
    for T in s.tables():
        assert sum(d * d for d in T.dims) == T.ctx.order
    return "sum of dim^2 = |G|"


def _element_average(char_table, table: GroupTable, counts, rows, what: str) -> int:
    """(1/|G|) sum over classes of an element count (from the enumeration)
    times a product of character rows."""
    val = rational_sum(char_table.n, counts, rows)
    if val % table.n:
        raise ArithmeticError(f"{what} sum is not an integer: table bug")
    return int(val) // table.n


def brute_fs(table: GroupTable, char_table, pi) -> int:
    """(1/|G|) sum over g of chi_pi(g^2): each element is squared once and
    the class of its square read from the enumeration."""
    counts = [0] * len(table.sizes)
    for sq in table.squares():
        counts[table.class_of[sq]] += 1
    return _element_average(char_table, table, counts, [char_table.row(pi)], "Frobenius-Schur")


def brute_fusion(table: GroupTable, char_table, p1, p2, p3) -> int:
    """(1/|G|) sum over g of chi1 chi2 chi3 (g), weighted by the class sizes
    counted in the enumeration."""
    rows = [char_table.row(pi) for pi in (p1, p2, p3)]
    return _element_average(char_table, table, table.sizes, rows, "fusion")


@_check("frobenius-schur-rules-vs-defining-sum")
def check_fs(s: _Session) -> str:
    for kind in ("gl", "pgl"):
        T = s.gl if kind == "gl" else s.pgl
        element_level = T.ctx.order <= s.cap
        table = s.group_table(kind) if element_level else None
        for pi in T.irreps:
            rule = T.fs_indicator(pi)
            assert rule in (0, 1)
            assert rule == T.fs_defining_sum(pi)
            if element_level:
                assert rule == brute_fs(table, T, pi)
            if kind == "pgl":
                assert rule == 1
    return "case rules = (1/|G|) sum chi(g^2); PGL all +1; no -1 anywhere"


@_check("fusion-closed-forms")
def check_fusion(s: _Session) -> str:
    T = s.gl
    irr = T.irreps
    if len(irr) > 40 and not s.deep:
        raise CapExceeded("fusion triple grid too large; use --deep")
    element_level = T.order <= 100
    table = s.group_table("gl") if element_level else None
    for i in range(len(irr)):
        for j in range(i, len(irr)):
            for k in range(j, len(irr)):
                got = T.triple_bracket(irr[i], irr[j], irr[k])
                assert got.denominator == 1 and got >= 0
                assert got == T.reduced_bracket(irr[i], irr[j], irr[k])
                if element_level:
                    assert got == brute_fusion(table, T, irr[i], irr[j], irr[k])
    return "class-weighted brackets = closed formulas (exhaustive triples)"


@_check("fusion-dimension-identity")
def check_fusion_dims(s: _Session) -> str:
    T = s.gl
    irr = T.irreps
    if len(irr) > 24 and not s.deep:
        raise CapExceeded("dimension identity grid too large; use --deep")
    dual = [T.irrep_index[T.contragredient(pi)] for pi in irr]

    @cache
    def bracket(a, b, c):  # N(i,j,k) = <pi_i pi_j pi_k*> is symmetric in (i, j, dual k)
        return T.fusion_coeff(irr[a], irr[b], irr[dual[c]])

    for i in range(len(irr)):
        for j in range(len(irr)):
            total = sum(bracket(*sorted((i, j, dual[k]))) * T.dims[k] for k in range(len(irr)))
            assert total == T.dims[i] * T.dims[j]
    return "dim x dim = sum of N * dim over the fusion expansion"


@_check("zeta-closed-forms")
def check_zeta_closed(s: _Session) -> str:
    q = s.q
    for sv in range(-4, 7):
        assert zeta_closed_gl(q, sv) == zeta_sum(s.gl, sv)
        assert zeta_closed_pgl(q, sv) == zeta_sum(s.pgl, sv)
        for eps in (-1, 0, 1):
            assert zeta_fs_closed_gl(q, eps, sv) == zeta_fs(s.gl, eps, sv)
            assert zeta_fs_closed_pgl(q, eps, sv) == zeta_fs(s.pgl, eps, sv)
        assert zeta_fs(s.gl, 1, sv) + zeta_fs(s.gl, 0, sv) + zeta_fs(
            s.gl, -1, sv
        ) == zeta_sum(s.gl, sv)
    for T in s.tables():
        assert zeta_sum(T, 0) == len(T.ctx.classes)
    return "closed forms = generic sums, s in [-4,6]; zeta(0) = class count"


@_check("zeta-at-minus-two-burnside")
def check_zeta_minus_two(s: _Session) -> str:
    for T in s.tables():
        assert zeta_sum(T, -2) == T.ctx.order
        assert zeta_sum(T, -2) != T.ctx.order**2
    return (
        "zeta(-2) = |G| (Burnside); the alternative identity zeta(-2) = |G|^2 "
        "fails and is documented as a discrepancy"
    )


@_check("zeta-insertion-closed-forms")
def check_insert_closed(s: _Session) -> str:
    q = s.q
    svals = range(-3, 4) if s.deep else (-2, 0, 1, 3)
    for T in s.tables():
        for c in T.ctx.classes:
            if T.group == "pgl" and c.kind == "identity":
                continue
            for sv in svals:
                assert zeta_insert_closed(T, [c], sv) == zeta_insert(
                    T, [c], sv
                ), (T.group, c, sv)
    T = s.pgl
    diag = [c for c in T.ctx.classes if c.kind == "diagonal"]
    ell = [c for c in T.ctx.classes if c.kind == "elliptic"]
    pool = diag + ell
    rs = (2, 3)
    for r in rs:
        combos = list(combinations_with_replacement(pool, r))
        if len(combos) > 200 and not s.deep:
            combos = combos[::7]
        for combo in combos:
            for sv in (-2, 0, 1):
                assert zeta_insert_closed(T, combo, sv) == zeta_insert(
                    T, combo, sv
                ), (combo, sv)
    return "one-insertion forms (all classes, both groups) and PGL r-insertion forms incl. mixed"


@_check("zeta-insertion-determinant-vanishing")
def check_insert_vanishing(s: _Session) -> str:
    T = s.gl
    ctx = T.ctx
    F = ctx.field
    from .grp import mat_det

    for c in ctx.classes:
        det = mat_det(F, ctx.representative(c))
        v = zeta_insert(T, [c], 0)
        if det != 1:
            assert v == 0, (c, v)
    pairs = [(a, b) for a in ctx.classes[:6] for b in ctx.classes[:6]]
    for a, b in pairs:
        det = F.mul(mat_det(F, ctx.representative(a)), mat_det(F, ctx.representative(b)))
        if det != 1:
            assert zeta_insert(T, [a, b], 1) == 0
    return "GL insertion zeta vanishes whenever det of the product is not 1"


@_check("zeta-double-closed-form")
def check_double(s: _Session) -> str:
    q = s.q
    for sv in range(-4, 7):
        assert zeta_double_closed(q, sv) == zeta_double(s.gl, sv)
    return "double zeta closed form = centralizer sum, s in [-4,6]"


def _first_of_each_kind(ctx) -> list:
    """The first class of each kind: central, unipotent, split, elliptic."""
    first: dict = {}
    for c in ctx.classes:
        first.setdefault(c.kind, c)
    return [first[k] for k in ("central", "unipotent", "diagonal", "elliptic") if k in first]


@_check("mednykh-closed-orientable-vs-oracle")
def check_mednykh(s: _Session) -> str:
    table = s.group_table("gl")
    for g in range(0, 4):
        spec = SurfaceSpec(True, g)
        assert hom_count(s.gl, spec).value == brute_hom_count(table, spec)
    return "|Hom(surface group, G)| formula = enumeration, genus 0..3"


@_check("boundary-insertions-vs-oracle")
def check_boundary(s: _Session) -> str:
    table = s.group_table("gl")
    reps = _first_of_each_kind(s.gl.ctx)
    for g in (0, 1):
        for c1 in reps:
            spec = SurfaceSpec(True, g, (c1,))
            assert hom_count(s.gl, spec).value == brute_hom_count(table, spec)
            for c2 in reps:
                spec2 = SurfaceSpec(True, g, (c1, c2))
                assert hom_count(s.gl, spec2).value == brute_hom_count(table, spec2)
    return "boundary-insertion counting formula = enumeration, g in {0,1}, r in {1,2}"


@_check("nonorientable-vs-oracle")
def check_nonorientable(s: _Session) -> str:
    table = s.group_table("gl")
    q = s.q
    for g in (1, 2, 3):
        spec = SurfaceSpec(False, g)
        assert hom_count(s.gl, spec).value == brute_hom_count(table, spec)
    rp2 = hom_count(s.gl, SurfaceSpec(False, 1)).value
    assert rp2 == 1 + (q * q - 1 if q % 2 == 0 else q * q + q + 1)
    return "non-orientable counting formula = enumeration; RP^2 count = 1 + t"


@_check("nonorientable-boundary-vs-oracle")
def check_nonorientable_boundary(s: _Session) -> str:
    table = s.group_table("gl")
    reps = _first_of_each_kind(s.gl.ctx)
    for g in (1, 2):
        for c1 in reps:
            spec = SurfaceSpec(False, g, (c1,))
            assert hom_count(s.gl, spec).value == brute_hom_count(table, spec)
    return "non-orientable boundary formula = enumeration, g in {1,2}, r = 1"


@_check("quotient-counts-vs-oracle")
def check_quotient(s: _Session) -> str:
    table = s.group_table("gl")
    for g in (1, 2):
        for orient in (True, False):
            spec = SurfaceSpec(orient, g)
            a = quotient_count(s.gl, spec).value
            assert a == brute_quotient_count(table, spec, "burnside")
            tiny = table.n ** ((2 if orient else 1) * g) <= 4_000_000
            if tiny and table.n <= CAYLEY_TABLE_CAP:
                assert a == brute_quotient_count(table, spec, "orbits")
    ogen = zeta_double(s.gl, 0)
    assert quotient_count(s.gl, SurfaceSpec(True, 1)).value == ogen
    return "AdG-quotient counts: Burnside (+ explicit orbits when tiny) = |G|^(2g-2) zeta_double"


@_check("boundary-quotient-vs-oracle")
def check_boundary_quotient(s: _Session) -> str:
    table = s.group_table("gl")
    reps = _first_of_each_kind(s.gl.ctx)
    first = {c.kind: c for c in reps}
    pair = (first["unipotent"], first["elliptic"])
    for boundaries in [(c1,) for c1 in reps] + [pair]:
        for orient in (True, False):
            spec = SurfaceSpec(orient, 1, boundaries)
            assert quotient_count(s.gl, spec).value == brute_quotient_count(
                table, spec, "burnside"
            )
    return (
        "boundary quotient counts (Frobenius-formula induced traces, r = 1, 2) "
        "= Burnside enumeration"
    )


@_check("theta-spectral-vs-enumerative")
def check_theta(s: _Session) -> str:
    for kind in ("gl", "pgl"):
        T = s.gl if kind == "gl" else s.pgl
        table = s.group_table(kind)
        assert topo.theta_torus_spectral(T) == table.theta_torus()
        assert topo.theta_square_spectral(T) == table.theta_square()
    return "commutator/squaring counts match their character expansions pointwise"


@_check("spectral-convolution-diagonalization")
def check_convolution(s: _Session) -> str:
    T = s.gl
    table = s.group_table("gl")
    th = table.theta_torus()
    sq = table.theta_square()
    spec_conv = topo.convolve_spectral(T, th, sq)
    enum_conv = table.convolve(th, sq)
    assert spec_conv.values == enum_conv.values
    # class indicator expansion
    for c in T.ctx.classes[:4]:
        ind = topo.class_indicator_spectral(T, c)
        want = table.class_indicator(c)
        assert ind == want
    return "Fourier-diagonal convolution = element-level convolution; class indicator expansion"


CHECKS = [
    check_field,
    check_dlog,
    check_char_orth,
    check_pair_identity,
    check_orbit_identity,
    check_N_identity,
    check_class_equation,
    check_involutions,
    check_orthogonality,
    check_burnside_dims,
    check_fs,
    check_fusion,
    check_fusion_dims,
    check_zeta_closed,
    check_zeta_minus_two,
    check_insert_closed,
    check_insert_vanishing,
    check_double,
    check_mednykh,
    check_boundary,
    check_nonorientable,
    check_nonorientable_boundary,
    check_quotient,
    check_boundary_quotient,
    check_theta,
    check_convolution,
]


def run_verify(q: int, deep: bool = False) -> list[CheckResult]:
    session = _Session(q, deep=deep)
    results = []
    for fn in CHECKS:
        name = fn._check_name
        try:
            note = fn(session)
            results.append(CheckResult(name, "pass", note))
        except CapExceeded as exc:
            results.append(CheckResult(name, "skip", str(exc)))
        except (AssertionError, ArithmeticError) as exc:
            results.append(CheckResult(name, "fail", str(exc)))
    return results
