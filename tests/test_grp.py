import random
from collections import Counter

import pytest

from conftest import context
from gl2zeta.ffield import FieldError
from gl2zeta.grp import ConjClass, mat_det, mat_inv, mat_mul, mat_scale


def mat_conj(F, p, m):
    """p m p^-1."""
    return mat_mul(F, mat_mul(F, p, m), mat_inv(F, p))


def test_gl_class_counts_and_sizes():
    for q in (2, 3, 4, 5, 7, 8, 9):
        G = context("gl", q)
        assert len(G.classes) == q * q - 1
        assert sum(G.sizes) == G.order == q * (q - 1) ** 2 * (q + 1)
        by_kind = Counter(c.kind for c in G.classes)
        assert by_kind["central"] == q - 1
        assert by_kind["unipotent"] == q - 1
        assert by_kind["diagonal"] == (q - 1) * (q - 2) // 2
        assert by_kind["elliptic"] == q * (q - 1) // 2
        for c in G.classes:
            size = G.sizes[G.class_index[c]]
            expected = {
                "central": 1,
                "unipotent": (q - 1) * (q + 1),
                "diagonal": q * (q + 1),
                "elliptic": q * (q - 1),
            }[c.kind]
            assert size == expected


def test_gl_q2_sizes():
    G = context("gl", 2)
    assert sorted(G.sizes) == [1, 2, 3]  # S3


def test_pgl_class_counts():
    for q in (2, 3, 4, 5, 7, 8, 9):
        P = context("pgl", q)
        assert sum(P.sizes) == P.order == q * (q - 1) * (q + 1)
        assert len(P.classes) == (q + 2 if q % 2 else q + 1)
        by_kind = Counter(c.kind for c in P.classes)
        assert by_kind["identity"] == 1
        assert by_kind["unipotent"] == 1
        assert by_kind["diagonal"] == ((q - 1) // 2 if q % 2 else (q - 2) // 2)
        assert by_kind["elliptic"] == ((q + 1) // 2 if q % 2 else q // 2)


def test_enumerate_group_counts():
    assert len(list(context("gl", 2).enumerate_group())) == 6
    assert len(list(context("gl", 3).enumerate_group())) == 48
    assert len(list(context("gl", 4).enumerate_group())) == 180
    assert len(list(context("pgl", 3).enumerate_group())) == 24


def test_classify_examples():
    G = context("gl", 3)
    assert G.classify((1, 0, 0, 1)) == ConjClass("gl", "central", (1,))
    assert G.classify((1, 1, 0, 1)) == ConjClass("gl", "unipotent", (1,))
    G2 = context("gl", 2)
    c = G2.classify((0, 1, 1, 1))  # char poly x^2 + x + 1 irreducible over F_2
    assert c.kind == "elliptic"
    assert c.params[0] in (G2.ext.delta, G2.ext.frobenius(G2.ext.delta))


def test_classify_is_class_inverse_of_representative():
    for q in (2, 3, 4, 5):
        for g in ("gl", "pgl"):
            ctx = context(g, q)
            for c in ctx.classes:
                assert ctx.classify(ctx.representative(c)) == c


def test_classify_singular_rejected():
    G = context("gl", 3)
    with pytest.raises(FieldError):
        G.classify((1, 1, 1, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_classify_conjugation_invariant(q):
    G = context("gl", q)
    els = list(G.enumerate_group())
    rng = random.Random(11)
    for _ in range(1000):
        m = rng.choice(els)
        p = rng.choice(els)
        assert G.classify(mat_conj(G.field, p, m)) == G.classify(m)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_brute_class_sizes(q):
    G = context("gl", q)
    sizes = Counter(G.classify(m) for m in G.enumerate_group())
    for c in G.classes:
        assert sizes[c] == G.sizes[G.class_index[c]]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_pgl_brute_conjugacy(q):
    """Full orbit partition of PGL under conjugation must reproduce the
    class list and sizes (settles the elliptic-class bookkeeping)."""
    P = context("pgl", q)
    els = list(P.enumerate_group())
    idx = {m: i for i, m in enumerate(els)}
    seen = set()
    found = []
    for m in els:
        if idx[m] in seen:
            continue
        orbit = {idx[P.normalize(mat_conj(P.field, p, m))] for p in els}
        seen |= orbit
        found.append((P.classify(m), len(orbit)))
    assert len(found) == len(P.classes)
    for cls, size in found:
        assert size == P.sizes[P.class_index[cls]]


def test_project_examples():
    P = context("pgl", 3)
    G = P.gl
    for x in (1, 2):
        assert P.project(ConjClass("gl", "central", (x,))).kind == "identity"
        assert P.project(ConjClass("gl", "unipotent", (x,))).kind == "unipotent"
    # diagonal projects to the x/y class
    c = P.project(ConjClass("gl", "diagonal", (1, 2)))
    assert c.kind == "diagonal"
    # trace-zero elliptic: representative of the form [[0, Delta], [1, 0]]
    E = P.ext
    tr0 = P.project(ConjClass("gl", "elliptic", (E.delta,)))
    assert tr0.kind == "elliptic"
    assert E.trace(tr0.params[0]) == 0
    rep = P.representative(tr0)
    assert mat_det(P.field, rep) != 0


def test_project_constant_on_scalar_families():
    for q in (3, 4, 5):
        P = context("pgl", q)
        G = P.gl
        F = P.field
        rng = random.Random(5)
        els = list(P.enumerate_group())
        for _ in range(50):
            m = rng.choice(els)
            base = P.classify(m)
            for s in range(1, q):
                assert P.classify(mat_scale(F, s, m)) == base


def test_pgl_diagonal_canonical_parameter():
    for q in (5, 7, 9):
        P = context("pgl", q)
        F = P.field
        for c in P.classes:
            if c.kind != "diagonal":
                continue
            k = F.dlog(c.params[0])
            assert k <= (-k) % (q - 1)


def test_centralizers():
    for q in (2, 3, 4, 5):
        G = context("gl", q)
        for c in G.classes:
            cent = G.centralizer(c)
            assert G.sizes[G.class_index[c]] * cent.order == G.order
            expected = {
                "central": G.order,
                "unipotent": q * (q - 1),
                "diagonal": (q - 1) ** 2,
                "elliptic": q * q - 1,
            }[c.kind]
            assert cent.order == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_involution_count(q):
    G = context("gl", q)
    ide = (1, 0, 0, 1)
    t = sum(
        1
        for m in G.enumerate_group()
        if m != ide and mat_mul(G.field, m, m) == ide
    )
    assert t == (q * q - 1 if q % 2 == 0 else q * q + q + 1)


def test_class_label_round_trip():
    from gl2zeta.cli import parse_classspec

    for q in (3, 4, 5):
        for g in ("gl", "pgl"):
            ctx = context(g, q)
            for c in ctx.classes:
                if g == "pgl" and c.kind in ("identity", "unipotent"):
                    continue
                assert parse_classspec(ctx, ctx.class_label(c)) == c
