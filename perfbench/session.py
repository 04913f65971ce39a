"""The warm-session workload: one Python process that builds its tables once and
then answers a seeded stream of library calls, as a notebook user would.

    python3 perfbench/session.py --seed N --passes K [--trace 1]

Set-up (``import gl2zeta`` plus the table builds) is timed from inside the
process.  The query list is then run K times.  Each query's latency includes
turning its result into an exact answer string.  Prints one JSON object on
stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction
from time import perf_counter

from harness import SRC, load_reference
from workloads import HOM_SHAPES, QUOTIENTS, TRIPLE_KINDS, WARM_GL, WARM_PGL, generate, irrep_label, pick_irreps

sys.path.insert(0, str(SRC))


def build_tables() -> dict:
    from gl2zeta import CharacterTable, GLContext, PGLContext

    tables = {f"gl{q}": CharacterTable(GLContext(q)) for q in WARM_GL}
    tables.update({f"pgl{q}": CharacterTable(PGLContext(q)) for q in WARM_PGL})
    return tables


def exact(v) -> str:
    """Exact answer string of a library result, independent of ``__str__``."""
    if hasattr(v, "normalization"):  # HomCount
        v = v.value
    if hasattr(v, "canonical_coeffs"):  # CycNumber
        r = v.as_rational()
        if r is None:
            coeffs = ",".join(str(Fraction(c)) for c in v.canonical_coeffs())
            return f"cyc{v.n}:sha256:" + hashlib.sha256(coeffs.encode()).hexdigest()[:32]
        v = r
    return str(Fraction(v))


class Calls:
    """Turns query keys into calls on the tables.

    A key is ``"<table> <function> <args...>"`` with class and irrep labels as
    the CLI spells them, e.g. ``"gl29 zeta_insert 2 c4:5 c2:0"``."""

    def __init__(self, tables: dict):
        import gl2zeta

        self.g = gl2zeta
        self.tables = tables
        self.classes = {
            name: {t.ctx.class_label(c): c for c in t.ctx.classes} for name, t in tables.items()
        }
        self.irreps = {name: {irrep_label(pi): pi for pi in t.irreps} for name, t in tables.items()}

    def make(self, key: str):
        name, fn, *args = key.split()
        g, table, cls, irr = self.g, self.tables[name], self.classes[name], self.irreps[name]
        if fn in ("zeta_insert", "zeta_insert_closed"):
            f = getattr(g, fn)
            s, labels = int(args[0]), [cls[a] for a in args[1:]]
            return lambda: exact(f(table, labels, s))
        if fn == "zeta_fs":
            eps, s = int(args[0]), int(args[1])
            return lambda: exact(g.zeta_fs(table, eps, s))
        if fn in ("hom_count", "quotient_count"):
            f = getattr(g, fn)
            spec = g.SurfaceSpec(args[0] == "o", int(args[1]), tuple(cls[a] for a in args[2:]))
            return lambda: exact(f(table, spec))
        if fn in ("triple_bracket", "fusion_coeff"):
            f = getattr(table, fn)
            pis = [irr[a] for a in args]
            return lambda: exact(f(*pis))
        if fn == "value":
            pi, cs = irr[args[0]], [cls[a] for a in args[1:]]
            return lambda: ";".join(exact(table.value(pi, c)) for c in cs)
        raise ValueError(f"unknown query {key!r}")


def candidates(tables: dict, rng: random.Random) -> dict[str, list[str]]:
    """Pool candidates per stratum (see workloads.WARM_SESSION)."""
    pools: dict[str, list[str]] = {}
    for name, t in tables.items():
        labels = [t.ctx.class_label(c) for c in t.ctx.classes]
        kind = {lb: c.kind for lb, c in zip(labels, t.ctx.classes)}
        irreps = [irrep_label(pi) for pi in t.irreps]

        def add(stratum, n, make):
            pools[f"{name}-{stratum}"] = [make() for _ in range(n)]

        for r in (1, 2, 3):
            add(f"zeta_insert-r{r}", 8, lambda r=r: f"{name} zeta_insert {rng.randint(0, 3)} " + " ".join(rng.sample(labels, r)))
        if name.startswith("pgl"):
            diag = [lb for lb in labels if kind[lb] == "diagonal"]
            ell = [lb for lb in labels if kind[lb] == "elliptic"]
            closed = lambda: [rng.choice(diag), rng.choice(ell)]  # noqa: E731
        else:
            closed = lambda: [rng.choice(labels)]  # noqa: E731
        add("zeta_insert_closed", 16, lambda: f"{name} zeta_insert_closed {rng.randint(0, 3)} " + " ".join(closed()))
        add("zeta_fs", 6, lambda: f"{name} zeta_fs {rng.choice([-1, 0, 1])} {rng.randint(0, 3)}")
        for o, r, genus in HOM_SHAPES:
            add(f"hom_count-{o}{r}", 6, lambda o=o, r=r, genus=genus: f"{name} hom_count {o} {genus} " + " ".join(rng.sample(labels, r)))
        for fn in ("triple_bracket", "fusion_coeff"):
            add(fn, 8, lambda fn=fn: f"{name} {fn} " + " ".join(pick_irreps(t, TRIPLE_KINDS, rng)))
        add("value", 40, lambda: f"{name} value {rng.choice(irreps)} " + " ".join(rng.sample(labels, 8)))
    for name, o, genus in QUOTIENTS:
        pools[f"{name}-quotient_count-{o}"] = [f"{name} quotient_count {o} {genus}"]
    return pools


def run_passes(queries, calls: Calls, answers: dict, passes: int, tracer=None):
    funcs = [calls.make(k) for k in queries]
    latencies: list[float] = []
    pass_walls: list[float] = []
    failures: list[str] = []
    for _ in range(passes):
        got = []
        for fn in funcs:
            if tracer is not None:
                tracer.query = len(latencies)
            t0 = perf_counter()
            try:
                ans = fn()
            except Exception as exc:  # a failing query is counted, the run goes on
                ans = f"error: {type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - t0)
            got.append(ans)
        pass_walls.append(sum(latencies[-len(funcs):]))
        for key, ans in zip(queries, got):
            if answers.get(key) != ans:
                failures.append(f"{key}: got {ans[:80]!r}, want {str(answers.get(key))[:80]!r}")
    return latencies, pass_walls, failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    tracer = None
    t0 = perf_counter()
    import gl2zeta  # noqa: F401  (timed as part of set-up)

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    tables = build_tables()
    setup_s = perf_counter() - t0
    ref = load_reference("warm-session")
    queries = generate("warm-session", args.seed, ref["pools"])
    latencies, walls, failures = run_passes(
        queries, Calls(tables), ref["answers"], args.passes, tracer
    )
    doc = {"setup_s": setup_s, "pass_len": len(queries), "latencies": latencies, "pass_walls": walls,
           "attempted": len(latencies), "failed": len(failures), "failures": failures[:5]}
    if tracer is not None:
        doc["layers"] = tracing.layer_metrics(tracer)
        doc["missing_targets"] = tracer.missing
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
