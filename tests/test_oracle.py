from itertools import permutations

import pytest

from conftest import char_table, context, group_table
from gl2zeta.ffield import CapExceeded
from gl2zeta.oracle import (
    GroupTable,
    brute_hom_count,
    brute_quotient_count,
    _enumerate_hom_tuples,
)
from gl2zeta.topo import SurfaceSpec, quotient_count


def identity_class(table):
    return table.ctx.classes[table.class_of[table.identity]]


def test_theta_torus_q2():
    G = group_table("gl", 2)
    th = G.theta_torus()
    assert th(identity_class(G)) == 18  # commuting pairs in S3
    assert sum(v * s for v, s in zip(th.values, G.ctx.sizes)) == 36


def test_theta_torus_total_mass():
    for g, q in (("gl", 3), ("pgl", 3), ("gl", 4)):
        G = group_table(g, q)
        th = G.theta_torus()
        assert sum(v * s for v, s in zip(th.values, G.ctx.sizes)) == G.n * G.n


def test_theta_square():
    G3 = group_table("gl", 3)
    assert G3.theta_square()(identity_class(G3)) == 14  # 1 + t, t = 13
    assert sum(v * s for v, s in zip(G3.theta_square().values, G3.ctx.sizes)) == G3.n
    P3 = group_table("pgl", 3)
    assert P3.theta_square()(identity_class(P3)) == 10  # 1 + 9 involutions in S4


def test_commuting_pairs_identity():
    # theta_torus at e counts commuting pairs = (number of classes) * |G|
    for g, q in (("gl", 2), ("gl", 3), ("pgl", 3), ("gl", 4)):
        G = group_table(g, q)
        assert G.theta_torus()(identity_class(G)) == len(G.ctx.classes) * G.n


def test_convolution_engine_against_direct_loops():
    G = group_table("gl", 3)
    # genus-2 orientable via convolution vs direct tuple enumeration at q=2
    G2 = group_table("gl", 2)
    spec = SurfaceSpec(True, 2)
    assert brute_hom_count(G2, spec) == len(_enumerate_hom_tuples(G2, spec))
    # Klein bottle at q=3: double loop
    cnt = 0
    for r1 in range(G.n):
        s1 = G.mul(r1, r1)
        for r2 in range(G.n):
            if G.mul(s1, G.mul(r2, r2)) == G.identity:
                cnt += 1
    assert cnt == brute_hom_count(G, SurfaceSpec(False, 2))


def test_hom_count_trivial_genus_zero():
    for g, q in (("gl", 2), ("gl", 3), ("pgl", 3)):
        G = group_table(g, q)
        assert brute_hom_count(G, SurfaceSpec(True, 0)) == 1


def test_boundary_insertion_direct_count():
    G = group_table("gl", 3)
    ell = next(
        c
        for c in G.ctx.classes
        if c.kind == "elliptic" and G.ctx.ext.norm(c.params[0]) == 1
    )
    idx = G.ctx.class_index[ell]
    direct = 0
    for a in range(G.n):
        for b in range(G.n):
            comm = G.mul(G.mul(a, b), G.inv[G.mul(b, a)])
            if G.class_of[G.inv[comm]] == idx:
                direct += 1
    assert direct == brute_hom_count(G, SurfaceSpec(True, 1, (ell,)))
    assert direct > 0


def test_insertion_order_invariance():
    G = group_table("gl", 3)
    cs = [G.ctx.classes[1], G.ctx.classes[3], G.ctx.classes[-1]]
    a = brute_hom_count(G, SurfaceSpec(True, 1, (cs[0], cs[1], cs[2])))
    b = brute_hom_count(G, SurfaceSpec(True, 1, (cs[2], cs[0], cs[1])))
    c = brute_hom_count(G, SurfaceSpec(True, 1, (cs[1], cs[2], cs[0])))
    assert a == b == c


def test_quotient_methods_agree():
    G2 = group_table("gl", 2)
    for spec in (
        SurfaceSpec(True, 1),
        SurfaceSpec(True, 2),
        SurfaceSpec(False, 1),
        SurfaceSpec(False, 2),
        SurfaceSpec(False, 3),
    ):
        assert brute_quotient_count(G2, spec, "burnside") == brute_quotient_count(
            G2, spec, "orbits"
        )
    G3 = group_table("gl", 3)
    for spec in (SurfaceSpec(True, 1), SurfaceSpec(False, 2)):
        assert brute_quotient_count(G3, spec, "burnside") == brute_quotient_count(
            G3, spec, "orbits"
        )


def test_quotient_counts_known_values():
    G2 = group_table("gl", 2)
    assert brute_quotient_count(G2, SurfaceSpec(True, 1)) == 8
    assert brute_quotient_count(G2, SurfaceSpec(True, 0)) == 1


def test_orbit_method_caps():
    G3 = group_table("gl", 3)
    with pytest.raises(CapExceeded):
        _enumerate_hom_tuples(G3, SurfaceSpec(True, 2))


def test_group_table_cap():
    from gl2zeta.grp import GLContext

    with pytest.raises(CapExceeded):
        GroupTable(GLContext(7), cap=100)


def test_classfunction_requires_full_cover():
    from gl2zeta.oracle import ClassFunction

    G = group_table("gl", 2)
    with pytest.raises(ValueError):
        ClassFunction(G.ctx, [1])


def pair_reference(G):
    """theta_torus, theta_square and the structure constants from their
    definitions: every pair (a, b) is enumerated and each class total is
    divided by the class size."""
    n, cls, sizes = G.n, G.class_of, G.ctx.sizes
    ncls = len(sizes)
    torus, square = [0] * ncls, [0] * ncls
    K = [[[0] * ncls for _ in range(ncls)] for _ in range(ncls)]
    for a in range(n):
        square[cls[G.mul(a, a)]] += 1
        for b in range(n):
            ab = G.mul(a, b)
            torus[cls[G.mul(ab, G.inv[G.mul(b, a)])]] += 1
            K[cls[a]][cls[b]][cls[ab]] += 1

    def per_rep(totals):
        assert all(t % s == 0 for t, s in zip(totals, sizes))
        return [t // s for t, s in zip(totals, sizes)]

    K = [[per_rep(K[A][B]) for B in range(ncls)] for A in range(ncls)]
    return per_rep(torus), per_rep(square), K


@pytest.mark.parametrize(
    "g,q", [("gl", 2), ("gl", 3), ("gl", 4), ("pgl", 2), ("pgl", 3), ("pgl", 4), ("pgl", 5)]
)
def test_oracle_matches_pair_enumeration(g, q):
    G = group_table(g, q)
    torus, square, K = pair_reference(G)
    assert G.theta_torus().values == torus
    assert G.theta_square().values == square
    assert G._structure_constants() == K


@pytest.mark.parametrize("orientable", [True, False])
def test_boundary_quotient_vs_burnside_q5(orientable):
    T = char_table("gl", 5)
    G = group_table("gl", 5)
    for kind in ("central", "unipotent", "diagonal", "elliptic"):
        c = next(c for c in T.ctx.classes if c.kind == kind)
        spec = SurfaceSpec(orientable, 1, (c,))
        assert quotient_count(T, spec).value == brute_quotient_count(G, spec, "burnside")


@pytest.mark.parametrize(
    "g,q", [("gl", 2), ("gl", 3), ("gl", 4), ("pgl", 3), ("pgl", 4), ("pgl", 5)]
)
def test_composed_cayley_table_matches_products(g, q):
    G = GroupTable(context(g, q))
    for i in range(G.n):
        for j in range(G.n):
            assert G.mul(i, j) == G.product(i, j)


@pytest.mark.parametrize("q", [4, 5])
def test_cayley_table_uses_few_products(q):
    G = GroupTable(context("gl", q))
    calls = 0
    product = G.product

    def counting_product(i, j):
        nonlocal calls
        calls += 1
        return product(i, j)

    G.product = counting_product
    for i in range(G.n):
        G.mul(i, 0)
    assert calls <= 4 * G.n


def test_triple_bracket_is_symmetric():
    T = char_table("gl", 3)
    irr = T.irreps
    for i in range(len(irr)):
        for j in range(i, len(irr)):
            for k in range(j, len(irr)):
                want = T.triple_bracket(irr[i], irr[j], irr[k])
                for a, b, c in permutations((irr[i], irr[j], irr[k])):
                    assert T.triple_bracket(a, b, c) == want


def test_orbit_method_caps_cayley_table():
    from gl2zeta.oracle import CAYLEY_TABLE_CAP

    G = GroupTable(context("gl", 9), cap=10_000)
    assert G.n > CAYLEY_TABLE_CAP
    with pytest.raises(CapExceeded):
        brute_quotient_count(G, SurfaceSpec(False, 1), "orbits")
