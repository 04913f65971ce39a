"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact integer/rational arithmetic; the only tolerance
appears in the float-path comparison of criterion 9 (1e-9 relative).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from conftest import char_table, group_table
from gl2zeta.cyclo import CycNumber
from gl2zeta.grp import mat_det
from gl2zeta.oracle import brute_hom_count, brute_quotient_count
from gl2zeta.topo import SurfaceSpec, hom_count, quotient_count
from gl2zeta.verify import brute_fusion
from gl2zeta.zeta import (
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


def class_type_reps(table):
    reps = []
    for kind in ("central", "unipotent", "diagonal", "elliptic"):
        match = [c for c in table.ctx.classes if c.kind == kind]
        if match:
            reps.append(match[0])
    return reps


def test_criterion_1_mednykh_closed_orientable():
    start = time.time()
    for q in (2, 3):
        T = char_table("gl", q)
        G = group_table("gl", q)
        for g in (0, 1, 2, 3):
            spec = SurfaceSpec(True, g)
            assert hom_count(T, spec).value == brute_hom_count(G, spec), (q, g)
    fast = time.time() - start
    assert fast < 10.0
    T4 = char_table("gl", 4)
    G4 = group_table("gl", 4)
    start = time.time()
    for g in (1, 2):
        spec = SurfaceSpec(True, g)
        assert hom_count(T4, spec).value == brute_hom_count(G4, spec)
    assert time.time() - start < 300.0
    print(f"\nACCEPTANCE 1 (Mednykh closed orientable, q in {{2,3}} + q=4 slow): PASS "
          f"({fast:.2f}s fast part)")


def test_criterion_2_boundary_insertions():
    T = char_table("gl", 3)
    G = group_table("gl", 3)
    reps = class_type_reps(T)
    assert len(reps) == 4
    for g in (0, 1):
        for c1 in reps:
            spec = SurfaceSpec(True, g, (c1,))
            assert hom_count(T, spec).value == brute_hom_count(G, spec)
            for c2 in reps:
                spec2 = SurfaceSpec(True, g, (c1, c2))
                assert hom_count(T, spec2).value == brute_hom_count(G, spec2)
    # vanishing: the insertion zeta is 0 whenever det != 1
    F = T.ctx.field
    for c in T.ctx.classes:
        if mat_det(F, T.ctx.representative(c)) != 1:
            assert zeta_insert(T, [c], 0) == 0
    for c1 in reps:
        for c2 in reps:
            det = F.mul(
                mat_det(F, T.ctx.representative(c1)),
                mat_det(F, T.ctx.representative(c2)),
            )
            if det != 1:
                assert zeta_insert(T, [c1, c2], 2) == 0
    print("\nACCEPTANCE 2 (boundary insertions q=3, g in {0,1}, r in {1,2} + det "
          "vanishing): PASS")


def test_criterion_3_nonorientable():
    for q in (2, 3):
        T = char_table("gl", q)
        G = group_table("gl", q)
        for g in (1, 2, 3):
            spec = SurfaceSpec(False, g)
            assert hom_count(T, spec).value == brute_hom_count(G, spec), (q, g)
        t = q * q - 1 if q % 2 == 0 else q * q + q + 1
        assert hom_count(T, SurfaceSpec(False, 1)).value == 1 + t
    print("\nACCEPTANCE 3 (non-orientable q in {2,3}, g in {1,2,3}; RP^2 = 1+t): PASS")


def test_criterion_4_nonorientable_with_boundaries():
    T = char_table("gl", 3)
    G = group_table("gl", 3)
    for g in (1, 2):
        for c1 in class_type_reps(T):
            spec = SurfaceSpec(False, g, (c1,))
            assert hom_count(T, spec).value == brute_hom_count(G, spec), (g, c1)
    print("\nACCEPTANCE 4 (non-orientable with boundaries q=3, g in {1,2}, r=1, "
          "all class types): PASS")


def test_criterion_5_quotient_counts():
    # explicit AdG-orbit counting at q=2
    T2 = char_table("gl", 2)
    G2 = group_table("gl", 2)
    for g in (1, 2):
        spec = SurfaceSpec(True, g)
        want = T2.order ** (2 * g - 2) * zeta_double(T2, 2 * g - 2)
        assert quotient_count(T2, spec).value == want
        assert brute_quotient_count(G2, spec, "orbits") == want
        assert brute_quotient_count(G2, spec, "burnside") == want
    # Burnside enumeration at both q
    for q in (2, 3):
        T = char_table("gl", q)
        G = group_table("gl", q)
        for g in (1, 2):
            spec = SurfaceSpec(True, g)
            want = T.order ** (2 * g - 2) * zeta_double(T, 2 * g - 2)
            assert quotient_count(T, spec).value == want
            assert brute_quotient_count(G, spec, "burnside") == want
    # boundary variant at q=3, g=1, r=1 through induced characters
    T3 = char_table("gl", 3)
    G3 = group_table("gl", 3)
    for c1 in class_type_reps(T3):
        spec = SurfaceSpec(True, 1, (c1,))
        assert quotient_count(T3, spec).value == brute_quotient_count(G3, spec)
    print("\nACCEPTANCE 5 (quotient counts: orbits q=2, Burnside q in {2,3}, "
          "|G|^(2g-2) zeta_double, boundary variant q=3): PASS")


def test_criterion_6_character_tables():
    for q in ALL_Q:
        for g in ("gl", "pgl"):
            T = char_table(g, q)
            ctx = T.ctx
            n = T.n
            nirr = len(T.irreps)
            rows = [T.row(pi) for pi in T.irreps]
            assert sum(d * d for d in T.dims) == T.order
            assert sum(ctx.sizes) == ctx.order
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
                    assert got == (1 if i == j else 0), (g, q, i, j)
            ncls = len(ctx.classes)
            cols = [T.column(c) for c in ctx.classes]
            for a in range(ncls):
                for b in range(a, ncls):
                    acc = {}
                    for i in range(nirr):
                        for c1, k1 in cols[a][i]:
                            for c2, k2 in cols[b][i]:
                                k = (k1 - k2) % n
                                acc[k] = acc.get(k, 0) + c1 * c2
                    got = CycNumber(n, acc).as_rational()
                    want = Fraction(T.order, ctx.sizes[a]) if a == b else Fraction(0)
                    assert got == want, (g, q, a, b)
    print("\nACCEPTANCE 6 (row/column orthogonality, dim^2 sum, class equation, "
          "q in {2,3,4,5,7,8,9}, both groups): PASS")


def test_criterion_7_frobenius_schur():
    for q in ALL_Q:
        for g in ("gl", "pgl"):
            T = char_table(g, q)
            for pi in T.irreps:
                rule = T.fs_indicator(pi)
                assert rule in (0, 1)  # no -1 anywhere
                assert rule == T.fs_defining_sum(pi), (g, q, pi)
                if g == "pgl":
                    assert rule == 1
        # involution identity
        T = char_table("gl", q)
        t = q * q - 1 if q % 2 == 0 else q * q + q + 1
        assert 1 + t == sum(
            d for d, pi in zip(T.dims, T.irreps) if T.fs_indicator(pi) != 0
        )
    print("\nACCEPTANCE 7 (FS case rules = defining sum, q in {2,...,9}; involution "
          "identity; PGL all +1; no -1): PASS")


def test_criterion_8_fusion_ring():
    for q in (3, 4, 5):
        T = char_table("gl", q)
        irr = T.irreps
        for i in range(len(irr)):
            for j in range(i, len(irr)):
                for k in range(j, len(irr)):
                    got = T.triple_bracket(irr[i], irr[j], irr[k])
                    assert got.denominator == 1 and got >= 0
                    assert got == T.reduced_bracket(irr[i], irr[j], irr[k])
    # element-level oracle sums at q = 3
    T3 = char_table("gl", 3)
    G3 = group_table("gl", 3)
    irr = T3.irreps
    for i in range(len(irr)):
        for j in range(i, len(irr)):
            for k in range(j, len(irr)):
                assert T3.triple_bracket(irr[i], irr[j], irr[k]) == brute_fusion(
                    G3, T3, irr[i], irr[j], irr[k]
                )
    # dimension identity
    for q in (3, 4, 5):
        T = char_table("gl", q)
        irr = T.irreps
        for i in range(len(irr)):
            for j in range(i, len(irr)):
                assert T.dims[i] * T.dims[j] == sum(
                    T.fusion_coeff(irr[i], irr[j], irr[k]) * T.dims[k]
                    for k in range(len(irr))
                )
    print("\nACCEPTANCE 8 (fusion: brackets = closed forms exhaustively q in {3,4,5}; "
          "element sums q=3; non-negative integers; dimension identity): PASS")


def test_criterion_9_zeta_closed_forms():
    for q in ALL_Q:
        Tg = char_table("gl", q)
        Tp = char_table("pgl", q)
        for s in range(-4, 7):
            assert zeta_closed_gl(q, s) == zeta(Tg, s)
            assert zeta_closed_pgl(q, s) == zeta(Tp, s)
            for eps in (1, 0, -1):
                assert zeta_fs_closed_gl(q, eps, s) == zeta_fs(Tg, eps, s)
                assert zeta_fs_closed_pgl(q, eps, s) == zeta_fs(Tp, eps, s)
            assert zeta_double_closed(q, s) == zeta_double(Tg, s)
        assert zeta(Tg, 0) == len(Tg.ctx.classes)
        assert zeta(Tp, 0) == len(Tp.ctx.classes)
        assert zeta(Tg, -2) == Tg.order  # documented discrepancy vs |G|^2
        assert zeta(Tp, -2) == Tp.order
        # one-insertion closed forms, every class, both groups
        for T in (Tg, Tp):
            for c in T.ctx.classes:
                if T.group == "pgl" and c.kind == "identity":
                    continue
                for s in range(-4, 7):
                    assert zeta_insert_closed(T, [c], s) == zeta_insert(T, [c], s)
        # r-insertion closed forms incl. the mixed case, full s grid
        diag = [c for c in Tp.ctx.classes if c.kind == "diagonal"]
        ell = [c for c in Tp.ctx.classes if c.kind == "elliptic"]
        for r in (2, 3):
            combos = list(combinations_with_replacement(diag + ell, r))
            if len(combos) > 60:
                combos = combos[::7]
            for combo in combos:
                for s in range(-4, 7):
                    assert zeta_insert_closed(Tp, combo, s) == zeta_insert(Tp, combo, s)
        # float path agrees within 1e-9 relative at integer s
        for s in (-2, 0, 3):
            exact = zeta(Tg, s)
            approx = zeta(Tg, float(s))
            assert abs(complex(exact) - approx) <= 1e-9 * max(1.0, abs(exact))
    assert zeta_double(char_table("gl", 2), 0) == 8
    print("\nACCEPTANCE 9 (zeta closed forms = generic sums, s in [-4,6], q in "
          "{2,...,9}; insertions incl. mixed; double; q=2 double at 0 is 8): PASS")


def test_criterion_10_character_sum_identities():
    from conftest import MulChar, base_chars, enumerate_N, is_primitive, value_power
    from gl2zeta.chars import epsilon_E_value

    for q in (3, 4, 5, 7, 8, 9):
        E = char_table("gl", q).ctx.ext
        F = E.base
        n = E.order - 1
        bc = base_chars(E)
        for x in range(1, q):
            total = CycNumber.from_monomials(
                n, [(1, value_power(mu, x, E)) for mu in bc]
            )
            assert total.as_rational() == ((q - 1) if x == 1 else 0)
            monos = []
            for i in range(len(bc)):
                for j in range(i + 1, len(bc)):
                    monos.append((1, value_power(bc[i].mul(bc[j]), x, E)))
            got = CycNumber.from_monomials(n, monos).as_rational()
            assert got == Fraction((q - 1) ** 2, 2) * (x == 1) - Fraction(
                q - 1, 2
            ) * (F.mul(x, x) == 1)
        orbits = []
        seen = set()
        for a in range(n):
            nu = MulChar(n, a)
            if not is_primitive(nu, E) or a in seen:
                continue
            seen.update({a, (a * q) % n})
            orbits.append(nu)
        for x in range(1, q):
            got = CycNumber.from_monomials(
                n, [(1, value_power(nu, E.embed(x), E)) for nu in orbits]
            ).as_rational()
            assert got == Fraction(q * q - 1, 2) * (x == 1) - Fraction(q - 1, 2) * (
                F.mul(x, x) == 1
            )
        N = enumerate_N(E)
        for lam in E.elements():
            if lam == 0:
                continue
            monos = []
            for o in N:
                monos.append((1, value_power(o.rep, lam, E)))
                monos.append((1, value_power(o.rep, E.frobenius(lam), E)))
            got = CycNumber.from_monomials(n, monos).as_rational()
            want = (q + 1) * E.in_base(lam) - 1
            if q % 2:
                want -= epsilon_E_value(E, lam)
            assert got == want
    print("\nACCEPTANCE 10 (the three base-field character-sum identities and the "
          "two cuspidal-restriction identities, pointwise, q in {3,...,9}): PASS")
