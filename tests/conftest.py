"""Shared, cached contexts and tables (construction is deterministic, so
caching across tests is safe)."""

from gl2zeta import CharacterTable, GLContext, GroupTable, PGLContext

_ctx_cache = {}
_table_cache = {}
_group_cache = {}


def context(group: str, q: int):
    key = (group, q)
    if key not in _ctx_cache:
        _ctx_cache[key] = GLContext(q) if group == "gl" else PGLContext(q)
    return _ctx_cache[key]


def char_table(group: str, q: int) -> CharacterTable:
    key = (group, q)
    if key not in _table_cache:
        _table_cache[key] = CharacterTable(context(group, q))
    return _table_cache[key]


def group_table(group: str, q: int) -> GroupTable:
    key = (group, q)
    if key not in _group_cache:
        _group_cache[key] = GroupTable(context(group, q))
    return _group_cache[key]


def cyc_product(n: int, *factors) -> dict:
    """The product in Q(zeta_n) of factors given as (coefficient, power) pairs,
    as a {power: coefficient} dict; a reference independent of the library's sums."""
    acc = {0: 1}
    for factor in factors:
        nxt = {}
        for k1, c1 in acc.items():
            for c2, k2 in factor:
                k = (k1 + k2) % n
                nxt[k] = nxt.get(k, 0) + c1 * c2
        acc = nxt
    return acc
