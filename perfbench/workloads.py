"""Seeded query lists for the three workloads.

Every workload is a fixed set of strata.  A stratum fixes everything that sets
a query's cost: command, group, q, flags, genus, orientation, the number of
insertions and the kinds of the classes and irreps involved.  Its pool holds
concrete queries that differ only in the parameters the seed may choose (class
and irrep labels of the fixed kinds, and s).  So every seed runs the same
commands on the same tables; what still differs between seeds is the labels,
whose cyclotomic fields make single library calls cost more or less (see
README.md for how much), and the order.  Every query any seed can generate is
in a pool whose answers are recorded in ``reference/<workload>.json``.

The pools are built once by ``make_reference.py`` from the program's public
class and irrep lists; at run time they are read from the reference file.
"""

from __future__ import annotations

import random

# stratum -> queries drawn per pass
COLD_FORMULA = {
    "zeta-gl23-both-r1": 1,
    "zeta-gl25-generic-r2": 1,
    "zeta-double-gl16": 1,
    "count-gl19-o-g2-r2": 1,
    "count-gl17-n-g2-r1": 1,
    "fusion-triple-gl16": 1,
    "zeta-pgl49-both-r2": 1,
    "count-pgl47-o-g2-r1": 1,
    "chartable-q9-ascii": 1,
    "chartable-q11-json": 1,
}

ENUMERATION = {
    "verify-q4": 1,
    "oracle-gl4-o-g2": 1,
    "oracle-gl5-n-g3": 1,
    "oracle-pgl7-o-g1": 1,
    "oracle-pgl7-n-g2": 1,
    "quotient-gl5-oracle-o-g1-r1": 1,
    "quotient-gl5-oracle-n-g2-r1": 1,
    "quotient-gl7-o-g1-r1": 1,
}

# warm-session: the tables one process builds during set-up
WARM_GL = (23, 25, 27)
WARM_PGL = (29, 49)
# hom_count strata: (orientation, boundaries, genus)
HOM_SHAPES = [("o", 0, 1), ("o", 1, 2), ("o", 2, 3), ("n", 0, 3), ("n", 1, 1), ("n", 2, 2)]
# quotient_count strata (no boundary): (table, orientation, genus)
QUOTIENTS = [("gl23", "o", 1), ("gl23", "n", 1)]
# the kinds of the irreps in triple_bracket and fusion_coeff calls
TRIPLE_KINDS = ("principal", "principal", "cuspidal")


def _warm_strata() -> dict[str, int]:
    strata = {}
    for q in WARM_GL:
        t = f"gl{q}"
        strata.update({
            f"{t}-zeta_insert-r1": 4, f"{t}-zeta_insert-r2": 4, f"{t}-zeta_insert-r3": 3,
            f"{t}-zeta_insert_closed": 8, f"{t}-zeta_fs": 3,
            **{f"{t}-hom_count-{o}{r}": 3 for o, r, _ in HOM_SHAPES},
            f"{t}-triple_bracket": 6, f"{t}-fusion_coeff": 6, f"{t}-value": 24,
        })
    strata.update({f"{t}-quotient_count-{o}": 1 for t, o, _ in QUOTIENTS})
    for q in WARM_PGL:
        t = f"pgl{q}"
        strata.update({
            f"{t}-zeta_insert-r1": 3, f"{t}-zeta_insert-r2": 3, f"{t}-zeta_insert-r3": 3,
            f"{t}-zeta_insert_closed": 8, f"{t}-zeta_fs": 3,
            **{f"{t}-hom_count-{o}{r}": 2 for o, r, _ in HOM_SHAPES},
            f"{t}-triple_bracket": 3, f"{t}-fusion_coeff": 3, f"{t}-value": 14,
        })
    return strata


WARM_SESSION = _warm_strata()

STRATA = {"cold-formula": COLD_FORMULA, "warm-session": WARM_SESSION, "enumeration": ENUMERATION}


def generate(workload: str, seed: int, pools: dict[str, list]) -> list:
    """One pass of the workload's query list for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    queries = []
    for stratum, picks in STRATA[workload].items():
        queries.extend(rng.choice(pools[stratum]) for _ in range(picks))
    rng.shuffle(queries)
    return queries


# -- pool candidates (used by make_reference.py) --------------------------------


def _labels(ctx, kinds=None) -> list[str]:
    return [ctx.class_label(c) for c in ctx.classes if kinds is None or c.kind in kinds]


def _inserts(labels: list[str]) -> str:
    return " ".join(f"--insert {c}" for c in labels)


def cold_formula_candidates(rng: random.Random) -> dict[str, list[str]]:
    from gl2zeta import CharacterTable, GLContext, PGLContext

    pools: dict[str, list[str]] = {}
    for q, mode, r in ((23, "both", 1), (25, "generic", 2)):
        labels = _labels(GLContext(q), ("elliptic",))
        pools[f"zeta-gl{q}-{mode}-r{r}"] = [
            f"zeta --q {q} --s {rng.randint(0, 3)} {_inserts(rng.sample(labels, r))} --{mode} --format json"
            for _ in range(6)
        ]
    pools["zeta-double-gl16"] = [f"zeta --q 16 --s {s} --double --both --format json" for s in range(4)]
    for stratum, q, flag, r in (("count-gl19-o-g2-r2", 19, "--orientable", 2),
                                ("count-gl17-n-g2-r1", 17, "--non-orientable", 1)):
        labels = _labels(GLContext(q), ("elliptic",))
        pools[stratum] = [
            f"count --q {q} --genus 2 {flag} {_inserts(rng.sample(labels, r))} --format json" for _ in range(6)
        ]
    table = CharacterTable(GLContext(16))
    pools["fusion-triple-gl16"] = [
        "fusion --q 16 --triple " + " ".join(pick_irreps(table, TRIPLE_KINDS, rng)) + " --format json" for _ in range(6)
    ]
    ctx = PGLContext(49)
    diag, ell = _labels(ctx, ("diagonal",)), _labels(ctx, ("elliptic",))
    pools["zeta-pgl49-both-r2"] = [
        f"zeta --group pgl2 --q 49 --s {rng.randint(0, 3)} {_inserts([rng.choice(diag), rng.choice(ell)])}"
        " --both --format json" for _ in range(6)
    ]
    ell = _labels(PGLContext(47), ("elliptic",))
    pools["count-pgl47-o-g2-r1"] = [
        f"count --group pgl2 --q 47 --genus 2 --orientable --insert {c} --format json" for c in rng.sample(ell, 6)
    ]
    for q, fmt in ((9, "ascii"), (11, "json")):
        pools[f"chartable-q{q}-{fmt}"] = [f"chartable --q {q} --format {fmt}"]
    return pools


def enumeration_candidates(rng: random.Random) -> dict[str, list[str]]:
    from gl2zeta import GLContext

    pools: dict[str, list[str]] = {"verify-q4": ["verify --q 4"]}
    flags = {"o": "--orientable", "n": "--non-orientable"}
    for group, q, o, g in (("gl", 4, "o", 2), ("gl", 5, "n", 3), ("pgl", 7, "o", 1), ("pgl", 7, "n", 2)):
        pools[f"oracle-{group}{q}-{o}-g{g}"] = [
            f"count --group {group}2 --q {q} --genus {g} {flags[o]} --oracle --format json"
        ]
    # boundaries are elliptic classes: the class kind changes the cost of a quotient by up to 70%
    for q, o, g, r, extra in ((5, "o", 1, 1, " --oracle"), (5, "n", 2, 1, " --oracle"), (7, "o", 1, 1, "")):
        labels = _labels(GLContext(q), ("elliptic",))
        name = f"quotient-gl{q}{'-oracle' if extra else ''}-{o}-g{g}-r{r}"
        pools[name] = [
            f"count --q {q} --genus {g} {flags[o]} {_inserts(rng.sample(labels, r))} --quotient{extra} --format json"
            for _ in range(4)
        ]
    return pools


def pick_irreps(table, kinds, rng: random.Random) -> list[str]:
    """Distinct irrep labels of the given kinds, one per kind."""
    picked: list[str] = []
    for kind in kinds:
        pool = [irrep_label(pi) for pi in table.irreps if pi.kind == kind]
        picked.append(rng.choice([x for x in pool if x not in picked]))
    return picked


def irrep_label(pi) -> str:
    """The CLI irrep spec of a GL irrep (``kind:params``)."""
    return f"{pi.kind}:{','.join(str(p) for p in pi.params)}"
