"""Representation zeta functions for GL(2,F_q) and PGL(2,F_q).

Every evaluator comes in two flavours: a generic sum driven by the exact
character table, and a closed form in q (the insertion forms read the
class dlogs and call no field method).  Integer arguments give exact
rationals; other arguments go through complex floats.

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

from .cyclo import CycNumber
from .grp import ConjClass
from .reptheory import CharacterTable, rational_sum


class ClosedFormUnavailable(ValueError):
    """The insertion pattern has no published closed form."""


def _is_int(s) -> bool:
    return isinstance(s, Integral)


def _ipow(base: int, s, shift: int = 0):
    """base^(-(s+shift)), exact for integral s, complex otherwise."""
    if _is_int(s):
        return Fraction(base) ** (-(int(s) + shift))
    return complex(base) ** (-(s + shift))


def zeta(table: CharacterTable, s):
    """Sum of dim(pi)^(-s) over the irreducible representations."""
    if _is_int(s):
        return sum((Fraction(d) ** (-int(s)) for d in table.dims), Fraction(0))
    return sum(complex(d) ** (-s) for d in table.dims)


def zeta_fs(table: CharacterTable, eps: int, s):
    """zeta restricted to irreps with the given Frobenius-Schur indicator."""
    if eps not in (-1, 0, 1):
        raise ValueError("eps must be -1, 0 or +1")
    dims = [d for d, fs in zip(table.dims, table.fs) if fs == eps]
    if _is_int(s):
        return sum((Fraction(d) ** (-int(s)) for d in dims), Fraction(0))
    return sum(complex(d) ** (-s) for d in dims)


def zeta_insert(table: CharacterTable, insertions, s):
    """Generic r-insertion zeta: sum of prod chi_pi(gamma_j) / dim^(s+r)."""
    insertions = tuple(insertions)
    if not insertions:
        raise ValueError("need at least one insertion")
    for c in insertions:
        if c.group != table.group:
            raise ValueError("insertion from a different group context")
    r = len(insertions)
    n = table.n
    cols = [table.column(c) for c in insertions]
    if _is_int(s):
        powers = {d: Fraction(d) ** (-(int(s) + r)) for d in set(table.dims)}
        return rational_sum(n, [powers[d] for d in table.dims], cols)
    total = 0j
    for i, d in enumerate(table.dims):
        term = complex(d) ** (-(s + r))
        for col in cols:
            term *= CycNumber.from_monomials(n, col[i]).to_float()
        total += term
    return total


def zeta_insert_elements(table: CharacterTable, matrices, s):
    """Convenience wrapper: classify raw matrices, then insert their classes."""
    classes = [table.ctx.classify(m) for m in matrices]
    return zeta_insert(table, classes, s)


# -- closed forms -------------------------------------------------------------


def zeta_closed_gl(q: int, s):
    return (
        (q - 1)
        + Fraction(q - 1) * (q - 2) / 2 * _ipow(q + 1, s)
        + (q - 1) * _ipow(q, s)
        + Fraction(q - 1) * q / 2 * _ipow(q - 1, s)
    )


def zeta_closed_pgl(q: int, s):
    if q % 2:
        return (
            2
            + Fraction(q - 3, 2) * _ipow(q + 1, s)
            + 2 * _ipow(q, s)
            + Fraction(q - 1, 2) * _ipow(q - 1, s)
        )
    return (
        1
        + Fraction(q - 2, 2) * _ipow(q + 1, s)
        + _ipow(q, s)
        + Fraction(q, 2) * _ipow(q - 1, s)
    )


def zeta_fs_closed_gl(q: int, eps: int, s):
    if eps == -1:
        return Fraction(0)
    if eps == 1:
        if q % 2:
            return (
                2
                + Fraction(q - 1, 2) * _ipow(q + 1, s)
                + 2 * _ipow(q, s)
                + Fraction(q - 1, 2) * _ipow(q - 1, s)
            )
        return (
            1
            + Fraction(q - 2, 2) * _ipow(q + 1, s)
            + _ipow(q, s)
            + Fraction(q, 2) * _ipow(q - 1, s)
        )
    return zeta_closed_gl(q, s) - zeta_fs_closed_gl(q, 1, s)


def zeta_fs_closed_pgl(q: int, eps: int, s):
    if eps in (-1, 0):
        return Fraction(0)
    return zeta_closed_pgl(q, s)


def _gl_insert_closed(table: CharacterTable, c: ConjClass, s):
    """The one-insertion forms on the class dlogs (`GLContext.dlogs`): each
    delta [x = 1] of a base-field element g^i is [i = 0 mod q-1]."""
    q = table.q
    d = table.ctx.dlogs[table.ctx.class_index[c]]
    half = Fraction(1, 2)

    def one(i: int) -> int:
        return 1 if i % (q - 1) == 0 else 0

    if c.kind == "central":
        dx, dx2 = one(d[0]), one(2 * d[0])
        return (
            (q - 1) * dx2
            + half * _ipow(q + 1, s) * ((q - 1) ** 2 * dx - (q - 1) * dx2)
            + _ipow(q, s) * (q - 1) * dx2
            + half * _ipow(q - 1, s) * ((q * q - 1) * dx - (q - 1) * dx2)
        )
    if c.kind == "unipotent":
        dx, dx2 = one(d[0]), one(2 * d[0])
        return (
            (q - 1) * dx2
            + half * _ipow(q + 1, s, 1) * ((q - 1) ** 2 * dx - (q - 1) * dx2)
            - half * _ipow(q - 1, s, 1) * ((q * q - 1) * dx - (q - 1) * dx2)
        )
    if c.kind == "diagonal":
        dx, dy, dxy = one(d[0]), one(d[1]), one(d[0] + d[1])
        return (
            (q - 1) * dxy
            + _ipow(q + 1, s, 1) * ((q - 1) ** 2 * dx * dy - (q - 1) * dxy)
            + _ipow(q, s, 1) * (q - 1) * dxy
        )
    # [N lam = 1]: dlog_F(N lam) = dlog_E(lam) mod q-1 (asserted in `ExtField`)
    dnorm = one(d[0])
    return (
        (q - 1) * dnorm
        - (q - 1) * _ipow(q, s, 1) * dnorm
        + (q - 1) * _ipow(q - 1, s, 1) * dnorm
    )


def _pgl_insert_unipotent(table: CharacterTable, s):
    # last denominator is the cuspidal dimension q - 1
    q = table.q
    if q % 2:
        return (
            2
            + Fraction(q - 3, 2) * _ipow(q + 1, s, 1)
            - Fraction(q - 1, 2) * _ipow(q - 1, s, 1)
        )
    return (
        1
        + Fraction(q - 2, 2) * _ipow(q + 1, s, 1)
        - Fraction(q, 2) * _ipow(q - 1, s, 1)
    )


def _pgl_insert_closed(table: CharacterTable, insertions: tuple, s):
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
    main = (1 + sign * _ipow(q, s, r)) * (1 + eps)
    if 0 < n_ell < r:
        return main
    m, base = (q + 1, q - 1) if n_ell else (q - 1, q + 1)
    eta_sum = 0
    for signs in product((1, -1), repeat=r):
        hit = 1 if sum(sg * k for sg, k in zip(signs, ks)) % m == 0 else 0
        eta_sum += m * hit - 1 - eps
    return main + sign * Fraction(1, 2) * _ipow(base, s, r) * eta_sum


def zeta_insert_closed(table: CharacterTable, insertions, s):
    """Closed-form r-insertion zeta; raises when no closed form applies."""
    insertions = tuple(insertions)
    if not insertions:
        raise ValueError("need at least one insertion")
    r = len(insertions)
    if table.group == "gl":
        if r != 1:
            raise ClosedFormUnavailable("GL closed forms cover one insertion")
        return _gl_insert_closed(table, insertions[0], s)
    kinds = tuple(c.kind for c in insertions)
    if r == 1 and kinds == ("unipotent",):
        return _pgl_insert_unipotent(table, s)
    if set(kinds) <= {"diagonal", "elliptic"}:
        return _pgl_insert_closed(table, insertions, s)
    raise ClosedFormUnavailable(f"no closed form for insertion pattern {kinds}")


# -- quantum double -----------------------------------------------------------


def zeta_double(table: CharacterTable, s):
    """zeta of the Drinfeld double of GL(2,F_q): sum over pairs of a
    conjugacy class and an irreducible of its centralizer."""
    if table.group != "gl":
        raise ValueError("the double is computed for the GL context")
    ctx = table.ctx
    dim_counts = Counter(table.dims)
    total = Fraction(0) if _is_int(s) else 0j
    for ci, c in enumerate(ctx.classes):
        cent = ctx.centralizer(c)
        osize = ctx.sizes[ci]
        if cent.structure == "full":
            # irreps of the full group, each Pi = (O, rho) of dim |O|*dim(rho)
            for d, k in dim_counts.items():
                total += k * _ipow(osize * d, s)
        else:
            # abelian centralizer: |C| one-dimensional characters
            total += cent.order * _ipow(osize, s)
    return total


def zeta_double_closed(q: int, s):
    # Denominator bases are the dimensions |O|*dim(rho) of the double's
    # irreps, i.e. the orbit sizes for the abelian-centralizer classes.
    return (
        (q - 1) ** 2
        + Fraction((q - 1) ** 2 * (q - 2), 2) * _ipow(q + 1, s)
        + (q - 1) ** 2 * _ipow(q, s)
        + Fraction((q - 1) ** 2 * q, 2) * _ipow(q - 1, s)
        + q * (q - 1) ** 2 * _ipow(q * q - 1, s)
        + Fraction((q - 1) ** 3 * (q - 2), 2) * _ipow(q * (q + 1), s)
        + Fraction(q * (q - 1) ** 2 * (q + 1), 2) * _ipow(q * (q - 1), s)
    )
