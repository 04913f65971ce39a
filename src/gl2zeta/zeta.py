"""Representation zeta functions for GL(2,F_q) and PGL(2,F_q).

Each zeta function of a finite group is a finite Dirichlet polynomial
sum of c_d * d^(-s) with rational c_d (Witten's zeta function), held
exactly as a `Dirichlet`.  Every evaluator builds that polynomial and
returns `Dirichlet.at(s)`: an exact rational at integer s, the exact
polynomial evaluated in complex floats at any other s, and the polynomial
itself at s = None, so two evaluators agree for every s exactly when
their polynomials are equal.

Every evaluator comes in two flavours: a generic sum driven by the exact
character table, and a closed form in q (the insertion forms read the
class dlogs and call no field method).

Three of the published closed forms needed repair to agree with the
character table (each mismatch is caught by the generic/closed equality
tests): the unipotent one-insertion forms use the cuspidal dimension
q - 1 in their last denominator, and the all-elliptic r-insertion forms
carry the quadratic-character terms of `_pgl_insert_closed`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from numbers import Integral

from .grp import ConjClass
from .reptheory import CharacterTable, rational_sum


class ClosedFormUnavailable(ValueError):
    """The insertion pattern has no published closed form."""


class Dirichlet:
    """The Dirichlet polynomial sum of c_b * b^(-s) over integer bases b >= 1,
    as a map b -> `Fraction` c_b.  Equal bases merge (at q = 2 the base
    q - 1 is the constant term's base 1) and zero terms drop, so two
    polynomials are equal exactly when they agree at every s."""

    __slots__ = ("coeffs",)

    def __init__(self, pairs=()):
        acc: dict = {}
        for b, c in pairs:
            acc[b] = acc.get(b, 0) + c
        self.coeffs = {b: Fraction(c) for b, c in sorted(acc.items()) if c}

    def __eq__(self, other):
        return isinstance(other, Dirichlet) and self.coeffs == other.coeffs

    def __sub__(self, other: Dirichlet) -> Dirichlet:
        return Dirichlet([*self.coeffs.items(), *((b, -c) for b, c in other.coeffs.items())])

    def __repr__(self) -> str:
        return f"Dirichlet({list(self.coeffs.items())!r})"

    def at(self, s):
        """The value at s: a `Fraction` for integral s, a `complex` for any
        other s, and the polynomial itself for s = None."""
        if s is None:
            return self
        if isinstance(s, Integral):
            return sum((c / Fraction(b) ** int(s) for b, c in self.coeffs.items()), Fraction(0))
        return sum((float(c) * complex(b) ** -s for b, c in self.coeffs.items()), 0j)


def _poly(terms, shift: int) -> Dirichlet:
    """sum of c * b^(-(s + shift)) over the (b, c) terms, as a polynomial in s."""
    return Dirichlet((b, Fraction(c, b**shift)) for b, c in terms)


def _insertions(table: CharacterTable, insertions) -> tuple:
    insertions = tuple(insertions)
    if not insertions:
        raise ValueError("need at least one insertion")
    if any(c.group != table.group for c in insertions):
        raise ValueError("insertion from a different group context")
    return insertions


def zeta(table: CharacterTable, s):
    """Sum of dim(pi)^(-s) over the irreducible representations."""
    return Dirichlet(Counter(table.dims).items()).at(s)


def _check_eps(eps: int) -> None:
    if eps not in (-1, 0, 1):
        raise ValueError("eps must be -1, 0 or +1")


def zeta_fs(table: CharacterTable, eps: int, s):
    """zeta restricted to irreps with the given Frobenius-Schur indicator."""
    _check_eps(eps)
    return Dirichlet((d, 1) for d, fs in zip(table.dims, table.fs) if fs == eps).at(s)


def zeta_insert(table: CharacterTable, insertions, s):
    """Generic r-insertion zeta: sum of prod chi_pi(gamma_j) / dim^(s+r).

    The coefficient of each dimension d is one `rational_sum` over the
    irreps of dimension d, rational because a Galois conjugate of an irrep
    has the same dimension."""
    insertions = _insertions(table, insertions)
    r = len(insertions)
    cols = [table.column(c) for c in insertions]
    return Dirichlet(
        (d, rational_sum(table.n, [int(e == d) for e in table.dims], cols) / d**r)
        for d in set(table.dims)
    ).at(s)


def zeta_insert_elements(table: CharacterTable, matrices, s):
    """Convenience wrapper: classify raw matrices, then insert their classes."""
    classes = [table.ctx.classify(m) for m in matrices]
    return zeta_insert(table, classes, s)


# -- closed forms -------------------------------------------------------------


def zeta_closed_gl(q: int, s):
    return Dirichlet([
        (1, q - 1),
        (q + 1, Fraction((q - 1) * (q - 2), 2)),
        (q, q - 1),
        (q - 1, Fraction((q - 1) * q, 2)),
    ]).at(s)


def zeta_closed_pgl(q: int, s):
    if q % 2:
        terms = [(1, 2), (q + 1, Fraction(q - 3, 2)), (q, 2), (q - 1, Fraction(q - 1, 2))]
    else:
        terms = [(1, 1), (q + 1, Fraction(q - 2, 2)), (q, 1), (q - 1, Fraction(q, 2))]
    return Dirichlet(terms).at(s)


def zeta_fs_closed_gl(q: int, eps: int, s):
    _check_eps(eps)
    if eps == -1:
        return Dirichlet().at(s)
    if eps == 1:
        if q % 2:
            terms = [(1, 2), (q + 1, Fraction(q - 1, 2)), (q, 2), (q - 1, Fraction(q - 1, 2))]
        else:
            terms = [(1, 1), (q + 1, Fraction(q - 2, 2)), (q, 1), (q - 1, Fraction(q, 2))]
        return Dirichlet(terms).at(s)
    return (zeta_closed_gl(q, None) - zeta_fs_closed_gl(q, 1, None)).at(s)


def zeta_fs_closed_pgl(q: int, eps: int, s):
    _check_eps(eps)
    if eps in (-1, 0):
        return Dirichlet().at(s)
    return zeta_closed_pgl(q, s)


def _gl_insert_closed(table: CharacterTable, c: ConjClass) -> Dirichlet:
    """The one-insertion forms on the class dlogs (`GLContext.dlogs`): each
    delta [x = 1] of a base-field element g^i is [i = 0 mod q-1]."""
    q = table.q
    d = table.ctx.dlogs[table.ctx.class_index[c]]
    half = Fraction(1, 2)

    def one(i: int) -> int:
        return 1 if i % (q - 1) == 0 else 0

    if c.kind in ("central", "unipotent"):
        dx, dx2 = one(d[0]), one(2 * d[0])
        e = (q - 1) * dx2
        terms = [(1, e), (q + 1, half * ((q - 1) ** 2 * dx - e))]
        last = half * ((q * q - 1) * dx - e)
        if c.kind == "central":
            return Dirichlet([*terms, (q, e), (q - 1, last)])
        return _poly([*terms, (q - 1, -last)], 1)
    if c.kind == "diagonal":
        dx, dy = one(d[0]), one(d[1])
        e = (q - 1) * one(d[0] + d[1])
        return _poly([(1, e), (q + 1, (q - 1) ** 2 * dx * dy - e), (q, e)], 1)
    # [N lam = 1]: dlog_F(N lam) = dlog_E(lam) mod q-1 (asserted in `ExtField`)
    e = (q - 1) * one(d[0])
    return _poly([(1, e), (q, -e), (q - 1, e)], 1)


def _pgl_insert_unipotent(table: CharacterTable) -> Dirichlet:
    # last denominator is the cuspidal dimension q - 1
    q = table.q
    if q % 2:
        return _poly([(1, 2), (q + 1, Fraction(q - 3, 2)), (q - 1, -Fraction(q - 1, 2))], 1)
    return _poly([(1, 1), (q + 1, Fraction(q - 2, 2)), (q - 1, -Fraction(q, 2))], 1)


def _pgl_insert_closed(table: CharacterTable, insertions: tuple) -> Dirichlet:
    """Every pattern of diagonal and elliptic classes, on the lift dlogs
    k_i (`PGLContext.dlogs`): k for diag(g^k, 1), dlog_E(lam) for lam.  For
    odd q, epsilon is (-1)^dlog on both fields and dlog_F(N lam) = dlog_E(lam)
    mod q-1, so every epsilon here is (-1)^(sum k_i).  lam^q has dlog
    q*k = -k mod q+1, and lam is in F_q exactly when its dlog is 0 mod q+1."""
    q = table.q
    ctx = table.ctx
    ks = [ctx.dlogs[ctx.class_index[c]][0] for c in insertions]
    r = len(ks)
    n_ell = sum(1 for c in insertions if c.kind == "elliptic")
    sign = (-1) ** n_ell
    eps = (-1) ** sum(ks) if q % 2 else 0
    main = [(1, 1 + eps), (q, sign * (1 + eps))]
    if 0 < n_ell < r:
        return _poly(main, r)
    m, base = (q + 1, q - 1) if n_ell else (q - 1, q + 1)
    eta_sum = 0
    for signs in product((1, -1), repeat=r):
        hit = 1 if sum(sg * k for sg, k in zip(signs, ks)) % m == 0 else 0
        eta_sum += m * hit - 1 - eps
    return _poly([*main, (base, sign * Fraction(eta_sum, 2))], r)


def zeta_insert_closed(table: CharacterTable, insertions, s):
    """Closed-form r-insertion zeta; raises when no closed form applies."""
    insertions = _insertions(table, insertions)
    r = len(insertions)
    if table.group == "gl":
        if r != 1:
            raise ClosedFormUnavailable("GL closed forms cover one insertion")
        return _gl_insert_closed(table, insertions[0]).at(s)
    kinds = tuple(c.kind for c in insertions)
    if r == 1 and kinds == ("unipotent",):
        return _pgl_insert_unipotent(table).at(s)
    if set(kinds) <= {"diagonal", "elliptic"}:
        return _pgl_insert_closed(table, insertions).at(s)
    raise ClosedFormUnavailable(f"no closed form for insertion pattern {kinds}")


# -- quantum double -----------------------------------------------------------


def zeta_double(table: CharacterTable, s):
    """zeta of the Drinfeld double of GL(2,F_q): sum over pairs of a
    conjugacy class and an irreducible of its centralizer."""
    if table.group != "gl":
        raise ValueError("the double is computed for the GL context")
    ctx = table.ctx
    dim_counts = Counter(table.dims)
    terms = []
    for c, osize in zip(ctx.classes, ctx.sizes):
        cent = ctx.centralizer(c)
        if cent.structure == "full":
            # irreps of the full group, each Pi = (O, rho) of dim |O|*dim(rho)
            terms += [(osize * d, k) for d, k in dim_counts.items()]
        else:
            # abelian centralizer: |C| one-dimensional characters
            terms.append((osize, cent.order))
    return Dirichlet(terms).at(s)


def zeta_double_closed(q: int, s):
    # Denominator bases are the dimensions |O|*dim(rho) of the double's
    # irreps, i.e. the orbit sizes for the abelian-centralizer classes.
    return Dirichlet([
        (1, (q - 1) ** 2),
        (q + 1, Fraction((q - 1) ** 2 * (q - 2), 2)),
        (q, (q - 1) ** 2),
        (q - 1, Fraction((q - 1) ** 2 * q, 2)),
        (q * q - 1, q * (q - 1) ** 2),
        (q * (q + 1), Fraction((q - 1) ** 3 * (q - 2), 2)),
        (q * (q - 1), Fraction(q * (q - 1) ** 2 * (q + 1), 2)),
    ]).at(s)
