"""Property-based checks of the exact formula side: generic sums against
their closed forms, and integrality of the Mednykh counts (against the
enumeration oracle at q <= 4), over randomly drawn q, s and classes
(derandomized, so every run draws the same cases)."""

from hypothesis import given, settings, strategies as st

from conftest import char_table, group_table
from gl2zeta.grp import mat_det
from gl2zeta.oracle import brute_hom_count
from gl2zeta.topo import SurfaceSpec, hom_count
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

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]

qs = st.sampled_from(PRIME_POWERS)
groups = st.sampled_from(["gl", "pgl"])
integer_s = st.integers(min_value=-4, max_value=4)
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


def _draw_closed_form_insertions(data, T) -> list:
    """Insertions whose pattern has a closed form: one class of any kind for
    GL; for PGL one unipotent class, or 1-3 diagonal/elliptic classes.

    A GL class is drawn by kind, and half the time from the classes of
    determinant 1, where the delta terms of the closed forms switch on
    (they are a few of the q^2 - 1 classes, so a uniform draw rarely finds
    them)."""
    ctx = T.ctx
    classes = ctx.classes
    if T.group == "gl":
        kind = data.draw(st.sampled_from(sorted({c.kind for c in classes})))
        pool = [c for c in classes if c.kind == kind]
        unimodular = [c for c in pool if mat_det(ctx.field, ctx.representative(c)) == 1]
        if unimodular and data.draw(st.booleans()):
            pool = unimodular
        return [data.draw(st.sampled_from(pool))]
    torus = [c for c in classes if c.kind in ("diagonal", "elliptic")]
    if data.draw(st.booleans()):
        return [data.draw(st.sampled_from([c for c in classes if c.kind == "unipotent"]))]
    return data.draw(st.lists(st.sampled_from(torus), min_size=1, max_size=3))


@SETTINGS
@given(group=groups, q=qs, s=integer_s, data=st.data())
def test_zeta_insert_generic_equals_closed(group, q, s, data):
    T = char_table(group, q)
    insertions = _draw_closed_form_insertions(data, T)
    assert zeta_insert(T, insertions, s) == zeta_insert_closed(T, insertions, s)


@SETTINGS
@given(group=groups, q=qs, s=integer_s)
def test_zeta_equals_closed(group, q, s):
    closed = zeta_closed_gl if group == "gl" else zeta_closed_pgl
    assert zeta(char_table(group, q), s) == closed(q, s)


@SETTINGS
@given(q=qs, s=integer_s)
def test_zeta_double_equals_closed(q, s):
    assert zeta_double(char_table("gl", q), s) == zeta_double_closed(q, s)


@SETTINGS
@given(group=groups, q=qs, s=integer_s, eps=st.sampled_from([-1, 0, 1]))
def test_zeta_fs_equals_closed(group, q, s, eps):
    closed = zeta_fs_closed_gl if group == "gl" else zeta_fs_closed_pgl
    assert zeta_fs(char_table(group, q), eps, s) == closed(q, eps, s)


@SETTINGS
@given(
    group=groups,
    q=qs,
    orientable=st.booleans(),
    genus=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_hom_count_is_a_non_negative_integer(group, q, orientable, genus, data):
    T = char_table(group, q)
    boundaries = data.draw(st.lists(st.sampled_from(T.ctx.classes), max_size=2))
    spec = SurfaceSpec(orientable, genus, tuple(boundaries))
    count = hom_count(T, spec)
    assert isinstance(count.value, int) and count.value >= 0
    if q <= 4:  # small enough to count by enumerating the group
        assert count.value == brute_hom_count(group_table(group, q), spec)
