"""Irreducible representations of GL(2,F_q) and PGL(2,F_q): exact character
tables, Frobenius-Schur indicators, contragredients and fusion coefficients.

Character values are exact elements of Q(zeta_n), n = q^2 - 1, held as
short monomial tuples (coefficient, power-of-zeta); a table row or column is
built on first read and memoised, so a query pays only for the cells it reads.
Every character-table sum goes through `monomial_sum` (`rational_sum` when
the sum is rational, in integers until one final division); other modules
pass it `CharacterTable.row`/`column` tuples, and `topo` also the induced
traces of centralizer characters, in the same (coefficient, power) format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .cyclo import CycNumber
from .grp import ConjClass

Monomials = tuple  # ((coeff, power), ...) in zeta_{q^2-1}


@dataclass(frozen=True)
class Irrep:
    group: str  # "gl" | "pgl"
    kind: str  # linear | principal | steinberg | cuspidal
    params: tuple  # character exponents, the representative `_canonical` picks


def _canonical(group: str, q: int, kind: str, p) -> tuple:
    """The representative of the orbit of character exponents p that names
    one irrep: exponents mod q^2-1 (cuspidal) or q-1 (the base-field kinds);
    a GL principal pair {mu1, mu2} sorted; min(a, aq) for a GL cuspidal
    {nu, nu^q}; min(a, -a) for the one exponent of a PGL principal series
    I(mu, mu^-1) or of a PGL cuspidal {nu, nu^-1}."""
    if kind == "cuspidal":
        n = q * q - 1
        a = p[0] % n
        b = (a * q if group == "gl" else -a) % n
    elif len(p) == 2:
        a, b = p[0] % (q - 1), p[1] % (q - 1)
        return (a, b) if a <= b else (b, a)
    else:
        a = p[0] % (q - 1)
        b = -a % (q - 1) if kind == "principal" else a
    return (a if a <= b else b,)


def monomial_sum(n: int, weights, factor_lists) -> CycNumber:
    """sum over t of weights[t] * prod over f of factor_lists[f][t], in Q(zeta_n).

    Each factor is a monomial tuple; a zero weight or an empty factor drops
    term t.  With no factor lists this is the sum of the weights.
    """
    acc: dict[int, object] = {}
    for t, w in enumerate(weights):
        if not w:
            continue
        prod = [(w, 0)]
        for factors in factor_lists:
            monos = factors[t]
            if not monos:
                break
            prod = [(c1 * c2, (k1 + k2) % n) for c1, k1 in prod for c2, k2 in monos]
        else:
            for coef, k in prod:
                acc[k] = acc.get(k, 0) + coef
    return CycNumber(n, acc)


def rational_sum(n: int, weights, factor_lists) -> Fraction:
    """`monomial_sum` for a rational result: each distinct weight becomes an
    integer over the weights' common denominator D, the integer sum is
    canonicalised, and D divides once at the end."""
    distinct = set(weights)
    den = lcm(*(Fraction(w).denominator for w in distinct))
    scaled = {w: int(w * den) for w in distinct}
    r = monomial_sum(n, [scaled[w] for w in weights], factor_lists).as_rational()
    if r is None:
        raise ArithmeticError("character-table sum is not rational: table bug")
    return r / den


def conjugate(monomial_lists, n: int) -> list:
    """Complex conjugates of a list of monomial tuples: zeta^k -> zeta^-k."""
    return [tuple([(c, -k % n) for c, k in monos]) for monos in monomial_lists]


def _merge(pairs, n: int) -> Monomials:
    acc: dict[int, int] = {}
    for c, k in pairs:
        k %= n
        acc[k] = acc.get(k, 0) + c
    return tuple((c, k) for k, c in sorted(acc.items(), key=lambda kv: kv[0]) if c)


# The generic character table: (irrep kind, class kind) -> cell(q, p, d), the
# cell's (coefficient, exponent of zeta_{q^2-1}) pairs for irrep parameters p
# and class discrete logs d (`GLContext.dlogs`).  A base-field dlog i enters
# as i*(q+1); the extension generator G has norm g and Frobenius G^q
# (asserted in `ExtField`), so dlog_F(N lam) = dlog_E(lam) mod q-1 and
# dlog_E(lam^q) = q*dlog_E(lam).
_CELLS = {
    ("linear", "central"): lambda q, p, d: [(1, 2 * p[0] * d[0] * (q + 1))],
    ("linear", "unipotent"): lambda q, p, d: [(1, 2 * p[0] * d[0] * (q + 1))],
    ("linear", "diagonal"): lambda q, p, d: [(1, p[0] * (d[0] + d[1]) * (q + 1))],
    ("linear", "elliptic"): lambda q, p, d: [(1, p[0] * d[0] * (q + 1))],
    ("principal", "central"): lambda q, p, d: [(q + 1, (p[0] + p[1]) * d[0] * (q + 1))],
    ("principal", "unipotent"): lambda q, p, d: [(1, (p[0] + p[1]) * d[0] * (q + 1))],
    ("principal", "diagonal"): lambda q, p, d: [
        (1, (p[0] * d[0] + p[1] * d[1]) * (q + 1)),
        (1, (p[0] * d[1] + p[1] * d[0]) * (q + 1)),
    ],
    ("principal", "elliptic"): lambda q, p, d: [],
    ("steinberg", "central"): lambda q, p, d: [(q, 2 * p[0] * d[0] * (q + 1))],
    ("steinberg", "unipotent"): lambda q, p, d: [],
    ("steinberg", "diagonal"): lambda q, p, d: [(1, p[0] * (d[0] + d[1]) * (q + 1))],
    ("steinberg", "elliptic"): lambda q, p, d: [(-1, p[0] * d[0] * (q + 1))],
    ("cuspidal", "central"): lambda q, p, d: [(q - 1, p[0] * d[0] * (q + 1))],
    ("cuspidal", "unipotent"): lambda q, p, d: [(-1, p[0] * d[0] * (q + 1))],
    ("cuspidal", "diagonal"): lambda q, p, d: [],
    ("cuspidal", "elliptic"): lambda q, p, d: [(-1, p[0] * d[0]), (-1, p[0] * d[0] * q)],
}


def _pgl_cell(irrep_kind, cell):
    """A PGL principal series I(mu, mu^-1) has the one parameter a of mu: it
    reads the GL cell of (a, -a)."""
    if irrep_kind != "principal":
        return cell
    return lambda q, p, d: cell(q, (p[0], -p[0]), d)


# PGL classes carry the GL coordinates of their lifts (`PGLContext.dlogs`),
# and the PGL kind "identity" is the GL central class of 1
_PGL_CELLS = {
    (pk, "identity" if ck == "central" else ck): _pgl_cell(pk, cell)
    for (pk, ck), cell in _CELLS.items()
}


class CharacterTable:
    """The exact character table of one group context."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.group = g = ctx.group
        self.q = q = ctx.q
        self.n = ctx.ext.order - 1  # conductor of all table values
        self.order = ctx.order
        self.irreps = self._enumerate_irreps()
        dim = {"linear": 1, "principal": q + 1, "steinberg": q, "cuspidal": q - 1}
        self.dims = [dim[pi.kind] for pi in self.irreps]
        assert sum(d * d for d in self.dims) == self.order
        assert len(self.irreps) == len(ctx.classes)
        self.irrep_index = {pi: i for i, pi in enumerate(self.irreps)}
        self._cells = _CELLS if g == "gl" else _PGL_CELLS
        # built on first read; a slot holds None or a complete tuple
        self._rows: list[tuple | None] = [None] * len(self.irreps)
        self._cols: list[tuple | None] = [None] * len(ctx.classes)

    # -- irrep lists ------------------------------------------------------

    def _enumerate_irreps(self) -> list[Irrep]:
        """Every irrep once, in kind order, by the raw parameters that are
        their own orbit representative (`_canonical`).  PGL keeps the irreps
        trivial on the centre: base exponents with 2a = 0 mod q-1, I(mu, mu^-1)
        by the exponent of mu, cuspidal exponents divisible by q-1."""
        g, q = self.group, self.q
        m = q - 1
        gl = g == "gl"
        base = [(a,) for a in range(m) if gl or 2 * a % m == 0]
        if gl:
            principal = [(a, b) for a in range(m) for b in range(a + 1, m)]
        else:
            principal = [(a,) for a in range(m) if 2 * a % m]
        cuspidal = [(a,) for a in range(0, self.n, 1 if gl else m) if a % (q + 1)]
        kinds = (("linear", base), ("principal", principal), ("steinberg", base), ("cuspidal", cuspidal))
        return [Irrep(g, k, p) for k, ps in kinds for p in ps if _canonical(g, q, k, p) == p]

    def dim(self, pi: Irrep) -> int:
        return self.dims[self.irrep_index[pi]]

    # -- table values -----------------------------------------------------

    def _monomials(self, pi: Irrep, kind: str, d: tuple) -> Monomials:
        """The value of pi on a class of this kind with dlog coordinates d."""
        return _merge(self._cells[pi.kind, kind](self.q, pi.params, d), self.n)

    def row(self, pi: Irrep) -> tuple[Monomials, ...]:
        """The values of pi on every class, in class order."""
        i = self.irrep_index[pi]
        if self._rows[i] is None:
            ctx = self.ctx
            self._rows[i] = tuple(
                self._monomials(pi, c.kind, d) for c, d in zip(ctx.classes, ctx.dlogs)
            )
        return self._rows[i]

    def column(self, c: ConjClass) -> tuple[Monomials, ...]:
        """The values of every irrep on c, in irrep order."""
        ci = self.ctx.class_index[c]
        if self._cols[ci] is None:
            d = self.ctx.dlogs[ci]
            self._cols[ci] = tuple(self._monomials(pi, c.kind, d) for pi in self.irreps)
        return self._cols[ci]

    def value(self, pi: Irrep, c: ConjClass) -> CycNumber:
        if pi.group != self.group or c.group != self.group:
            raise ValueError("irrep/class from a different group context")
        d = self.ctx.dlogs[self.ctx.class_index[c]]
        return CycNumber.from_monomials(self.n, self._monomials(pi, c.kind, d))

    # -- Frobenius-Schur ----------------------------------------------------

    @cached_property
    def fs(self) -> list[int]:
        """The Frobenius-Schur indicators in irrep order.  No irrep of GL(2,q)
        or PGL(2,q) has indicator -1 (Prasad), so FS(pi) = [pi = pi*]."""
        return [int(self.contragredient(pi) == pi) for pi in self.irreps]

    def fs_indicator(self, pi: Irrep) -> int:
        return self.fs[self.irrep_index[pi]]

    def fs_defining_sum(self, pi: Irrep) -> int:
        """(1/|G|) sum over g of chi(g^2), via class squares."""
        from .grp import mat_mul  # local to avoid cycles in readers

        ctx = self.ctx
        F = ctx.field
        row = self.row(pi)
        squares = [row[ctx.class_index[ctx.classify(mat_mul(F, m, m))]] for m in ctx.reps]
        r = rational_sum(self.n, ctx.sizes, [squares])
        assert r % self.order == 0, "FS sum must be an integer"
        return int(r) // self.order

    # -- duals and tensor twists -------------------------------------------

    def _act(self, pi: Irrep, u: int, a: int) -> Irrep:
        """The irrep with parameters u*p + a*w, w = 1 for the base-field kinds
        and w = q+1 for cuspidal (chi_a o det restricted to E^x is chi_a o N):
        u = -1 is the contragredient, (1, a) the twist by chi_a."""
        w = self.q + 1 if pi.kind == "cuspidal" else 1
        p = [u * x + a * w for x in pi.params]
        return Irrep(pi.group, pi.kind, _canonical(pi.group, self.q, pi.kind, p))

    def contragredient(self, pi: Irrep) -> Irrep:
        return self._act(pi, -1, 0)

    def tensor_with_linear(self, a: int, pi: Irrep) -> Irrep:
        """chi_a (x) pi."""
        return self._act(pi, 1, a)

    # -- brackets and fusion -------------------------------------------------

    def _bracket(self, pis) -> Fraction:
        """(1/|G|) sum over g of the product of the (unconjugated) characters."""
        return rational_sum(self.n, self.ctx.sizes, [self.row(pi) for pi in pis]) / self.order

    def pair_bracket(self, p1: Irrep, p2: Irrep) -> Fraction:
        return self._bracket((p1, p2))

    def triple_bracket(self, p1: Irrep, p2: Irrep, p3: Irrep) -> Fraction:
        return self._bracket((p1, p2, p3))

    def fusion_coeff(self, p1: Irrep, p2: Irrep, p3: Irrep) -> int:
        """Multiplicity of p3 inside p1 (x) p2: the bracket with p3's
        conjugated row, so it does not read `contragredient`."""
        rows = [self.row(p1), self.row(p2), conjugate(self.row(p3), self.n)]
        v = rational_sum(self.n, self.ctx.sizes, rows) / self.order
        assert v.denominator == 1 and v >= 0, "fusion coefficient must be a non-negative integer"
        return int(v)

    # -- closed forms ----------------------------------------------------------

    def _delta_base(self, *exps: int) -> int:
        return 1 if sum(exps) % (self.q - 1) == 0 else 0

    def _delta_ext(self, *exps: int) -> int:
        return 1 if sum(exps) % self.n == 0 else 0

    def closed_form_pair(self, p1: Irrep, p2: Irrep) -> int:
        """Orthogonality-derived pair bracket <pi pi'> = [pi' = pi*]."""
        return int(p2 == self.contragredient(p1))

    def closed_form_triple(self, p1: Irrep, p2: Irrep, p3: Irrep) -> int:
        """The explicit triple bracket <pi pi' pi''>, no linear arguments."""
        if self.group != "gl":
            raise ValueError("closed forms are stated for the GL context")
        if any(p.kind == "linear" for p in (p1, p2, p3)):
            raise ValueError("reduce linear tensor factors first (reduced_bracket)")
        q = self.q
        qp = q + 1
        order = {"principal": 0, "steinberg": 1, "cuspidal": 2}
        ps = sorted((p1, p2, p3), key=lambda p: order[p.kind])
        kinds = tuple(p.kind for p in ps)
        d, dE = self._delta_base, self._delta_ext

        if kinds == ("principal", "principal", "principal"):
            (m1, m2), (n1, n2), (r1, r2) = ps[0].params, ps[1].params, ps[2].params
            return (
                d(m1, m2, n1, n2, r1, r2)
                + d(m1, n1, r1) * d(m2, n2, r2)
                + d(m2, n1, r1) * d(m1, n2, r2)
                + d(m1, n2, r1) * d(m2, n1, r2)
                + d(m1, n1, r2) * d(m2, n2, r1)
            )
        if kinds == ("principal", "principal", "steinberg"):
            (m1, m2), (n1, n2), (r,) = ps[0].params, ps[1].params, ps[2].params
            return (
                d(m1, m2, n1, n2, 2 * r)
                + d(m1, n1, r) * d(m2, n2, r)
                + d(m1, n2, r) * d(m2, n1, r)
            )
        if kinds == ("principal", "principal", "cuspidal"):
            (m1, m2), (n1, n2), (r,) = ps[0].params, ps[1].params, ps[2].params
            return d(m1, m2, n1, n2, r)  # r restricted: exponents add mod q-1
        if kinds == ("principal", "steinberg", "steinberg"):
            (m1, m2), (nn,), (r,) = ps[0].params, ps[1].params, ps[2].params
            return d(m1, m2, 2 * nn, 2 * r) + d(m1, nn, r) * d(m2, nn, r)
        if kinds == ("steinberg", "steinberg", "steinberg"):
            (m,), (nn,), (r,) = ps[0].params, ps[1].params, ps[2].params
            return d(2 * m, 2 * nn, 2 * r)
        if kinds == ("principal", "steinberg", "cuspidal"):
            (m1, m2), (nn,), (r,) = ps[0].params, ps[1].params, ps[2].params
            return d(m1, m2, 2 * nn, r)
        if kinds == ("principal", "cuspidal", "cuspidal"):
            (m1, m2), (nn,), (r,) = ps[0].params, ps[1].params, ps[2].params
            return d(m1, m2, nn, r)
        if kinds == ("steinberg", "steinberg", "cuspidal"):
            (m,), (nn,), (r,) = ps[0].params, ps[1].params, ps[2].params
            return d(2 * m, 2 * nn, r)
        if kinds == ("steinberg", "cuspidal", "cuspidal"):
            (m,), (nn,), (r,) = ps[0].params, ps[1].params, ps[2].params
            # the base character enters through the norm: exponent m*(q+1)
            val = d(2 * m, nn, r) - dE(m * qp, nn, r) - dE(m * qp, nn, r * q)
            assert val in (0, 1)
            return val
        if kinds == ("cuspidal", "cuspidal", "cuspidal"):
            (m,), (nn,), (r,) = ps[0].params, ps[1].params, ps[2].params
            val = d(m, nn, r) - (
                dE(m, nn, r)
                + dE(m * q, nn, r)
                + dE(m, nn * q, r)
                + dE(m, nn, r * q)
            )
            assert val in (0, 1)
            return val
        raise AssertionError(f"unreachable kinds {kinds}")

    def reduced_bracket(self, p1: Irrep, p2: Irrep, p3: Irrep) -> int:
        """Closed-form triple bracket for arbitrary kinds, reducing linear
        factors through the tensor-twist rules."""
        pis = [p1, p2, p3]
        linear = [p for p in pis if p.kind == "linear"]
        rest = [p for p in pis if p.kind != "linear"]
        if not linear:
            return self.closed_form_triple(p1, p2, p3)
        a = sum(p.params[0] for p in linear) % (self.q - 1)
        if not rest:
            return self._delta_base(a)
        if len(rest) == 1:
            # <chi_a pi> vanishes for every pi of dimension > 1
            return 0
        # two non-linear factors: twist one of them and use the pair bracket
        twisted = self.tensor_with_linear(a, rest[0])
        return self.closed_form_pair(twisted, rest[1])
