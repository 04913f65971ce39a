"""The gl2zeta benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout; the program is imported from ``src/``.
NAME is ``cold-formula``, ``warm-session``, ``enumeration`` or ``all``.

``--trace 0`` measures the end-to-end metrics (``setup_s``, ``wall_s``,
``query_p50_s``, ``peak_rss_mb``).  ``--seconds`` fixes how often the work is
repeated: one pass over a CLI list per ``CLI_PASS_S`` seconds, one warm
session per ``WARM_SESSION_S`` seconds (their lengths when the benchmark was
defined).  The count depends on ``--seconds`` only, never on how fast the
program runs, so a faster program finishes sooner.  A query's time is its
fastest run; ``query_p50_s`` is the Harrell-Davis median of those times.
``--trace 1`` is a separate run: ``TRACE_ROUNDS`` rounds, each running every query (CLI) or
a one-pass session (warm) untraced and then traced.  It reports the per-layer
metrics of the first traced round and ``trace.overhead_s``, the traced minus
the untraced wall time, each query at its fastest.  Every answer is compared
with ``reference/``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload (and, with ``--trace 1``, its traced
run too) and prints a table with units, ``failed_frac`` and, where a pass is
long enough, the query tail.  ``--out FILE`` writes the full results, with the
machine facts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median

from child import MARKER
from harness import (
    BENCH,
    IMPORT_STUB,
    SRC,
    cli_answer,
    cli_argv,
    close_children,
    hd_median,
    judge,
    load_reference,
    machine_facts,
    run_child,
    tail_latency,
)
from tracing import PER_LAYER
from workloads import STRATA, generate

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "query_p50_s": "s", "peak_rss_mb": "MB"}
CLI_PASS_S = 8  # seconds of --seconds per pass over a CLI list
CLI_MIN_PASSES = 2
WARM_SESSION_S = 8  # seconds of --seconds per warm session
WARM_MIN_SESSIONS = 3  # fresh processes, each importing gl2zeta and building the tables
WARM_PASSES = 2  # passes over the query list in each warm session
SETUP_EVERY = 3  # CLI workloads: an import-only start before every third command
TRACE_ROUNDS = 2


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed query)."""


# -- CLI workloads (cold-formula, enumeration) ----------------------------------


def _layers_from_stderr(err: str) -> dict | None:
    for line in reversed(err.splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    return None


def _import_sample() -> float:
    c = run_child([sys.executable, "-c", IMPORT_STUB])
    if c.rc != 0:
        raise BenchError(f"import gl2zeta.cli failed: {c.err.strip()[-300:]}")
    return c.seconds


def repeats(seconds: float, unit_s: float, minimum: int) -> int:
    """How many times a run repeats its work: fixed by ``--seconds`` alone."""
    return max(minimum, round(seconds / unit_s))


def trace_overhead(plain: list[list[float]], traced: list[list[float]]) -> tuple[float, float]:
    """(overhead, noise) from rounds of per-query times, untraced and traced.

    The overhead is the sum of each query's fastest traced time minus the sum
    of its fastest untraced time; the noise is the larger spread of the
    untraced or the traced rounds' totals.  Tracing only adds work, so an
    overhead not above the noise is unresolved."""
    def fastest(rounds):
        return sum(map(min, zip(*rounds)))

    def spread(rounds):
        totals = [sum(r) for r in rounds]
        return max(totals) - min(totals)

    return fastest(traced) - fastest(plain), max(spread(plain), spread(traced))


def cli_pass(queries: list[str], answers: dict, traced: bool, setup: list | None = None) -> list[dict]:
    """Run each command in a fresh interpreter; one record per command.
    With ``setup``, an import-only interpreter start is timed before every
    ``SETUP_EVERY``-th command, so the set-up samples are spread over the run."""
    records = []
    for i, cmd in enumerate(queries):
        if setup is not None and i % SETUP_EVERY == 0:
            setup.append(_import_sample())
        argv = cmd.split()
        if traced:
            c = run_child([sys.executable, str(BENCH / "child.py"), repr(time.time()), "--", *argv])
        else:
            c = run_child(cli_argv(argv))
        try:
            answer = cli_answer(argv, c.out) if c.rc == 0 else None
        except (ValueError, KeyError, TypeError):
            answer = None
        rec = {"query": cmd, "seconds": c.seconds, "rss_mb": c.rss_mb,
               "failure": judge(c.rc, answer, answers.get(cmd))}
        if rec["failure"] and c.err:
            rec["stderr"] = c.err.strip().splitlines()[-1][:200]
        if traced:
            rec["trace"] = _layers_from_stderr(c.err)
        records.append(rec)
    return records


def run_cli_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ref = load_reference(workload)
    queries = generate(workload, seed, ref["pools"])
    answers = ref["answers"]
    _import_sample()  # writes the bytecode cache, as an installed package has
    if trace:
        # each command untraced, then traced, back to back: the machine's load
        # changes over seconds, so adjacent runs give the fairer overhead
        plain, traced = [], []
        for _ in range(TRACE_ROUNDS):
            plain.append([])
            traced.append([])
            for cmd in queries:
                plain[-1] += cli_pass([cmd], answers, traced=False)
                traced[-1] += cli_pass([cmd], answers, traced=True)
        layers = {m: 0 for m in PER_LAYER}
        missing = set()
        for rec in traced[0]:
            for m, v in (rec["trace"] or {}).get("layers", {}).items():
                layers[m] += v
            missing.update((rec["trace"] or {}).get("missing_targets", []))
        overhead = trace_overhead([[r["seconds"] for r in p] for p in plain],
                                  [[r["seconds"] for r in p] for p in traced])
        layers["trace.overhead_s"] = overhead[0]
        records = [r for p in plain + traced for r in p]
        return _result(records, [r["failure"] for r in records], layers=layers, pass_len=len(queries),
                       missing=sorted(missing), overhead=overhead)
    setup: list[float] = []
    passes = [cli_pass(queries, answers, traced=False, setup=setup)
              for _ in range(repeats(seconds, CLI_PASS_S, CLI_MIN_PASSES))]
    setup_s = median(setup)
    # a query's time is its fastest run, as the machine's load only ever adds
    # time, less the interpreter start and import that setup_s reports
    best = [min(p[i]["seconds"] for p in passes) - setup_s for i in range(len(queries))]
    records = [r for p in passes for r in p]
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "query_p50_s": hd_median(best),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    return _result(records, [r["failure"] for r in records], e2e=metrics, latencies=best,
                   pass_len=len(queries), walls=[sum(r["seconds"] for r in p) for p in passes], setup=setup)


# -- warm-session ---------------------------------------------------------------------


def _session(seed: int, passes: int, trace: bool = False) -> tuple[dict, float]:
    argv = [sys.executable, str(BENCH / "session.py"), "--seed", str(seed), "--passes", str(passes)]
    c = run_child(argv + (["--trace", "1"] if trace else []))
    if c.rc != 0:
        raise BenchError(f"warm session failed (exit {c.rc}): {c.err.strip()[-300:]}")
    return json.loads(c.out), c.rss_mb


def _session_failures(docs) -> list:
    """One entry per attempted query: its failure (each session reports its
    first few in full), or None."""
    out = []
    for doc in docs:
        shown = doc["failures"]
        out += shown + ["(not shown)"] * (doc["failed"] - len(shown))
        out += [None] * (doc["attempted"] - doc["failed"])
    return out


def _per_pass(docs) -> list[list[float]]:
    """The latencies of every pass of every session, one list per pass."""
    n = docs[0]["pass_len"]
    return [doc["latencies"][i:i + n] for doc in docs for i in range(0, len(doc["latencies"]), n)]


def run_warm(seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        plain, traced = [], []
        for _ in range(TRACE_ROUNDS):
            plain.append(_session(seed, 1)[0])
            traced.append(_session(seed, 1, trace=True)[0])
        layers = {m: 0 for m in PER_LAYER}
        layers.update(traced[0]["layers"])
        overhead = trace_overhead(_per_pass(plain), _per_pass(traced))
        layers["trace.overhead_s"] = overhead[0]
        return _result([], _session_failures(plain + traced), layers=layers,
                       pass_len=plain[0]["pass_len"], missing=traced[0]["missing_targets"], overhead=overhead)
    runs = [_session(seed, WARM_PASSES) for _ in range(repeats(seconds, WARM_SESSION_S, WARM_MIN_SESSIONS))]
    docs = [doc for doc, _ in runs]
    passes = _per_pass(docs)
    best = [min(lat) for lat in zip(*passes)]
    setup = [doc["setup_s"] for doc in docs]
    metrics = {
        "setup_s": median(setup),
        "wall_s": sum(best),
        "query_p50_s": hd_median(best),
        "peak_rss_mb": max(rss for _, rss in runs),
    }
    return _result([], _session_failures(docs), e2e=metrics, latencies=best, pass_len=len(best),
                   walls=[sum(p) for p in passes], setup=setup)


# -- results --------------------------------------------------------------------------


def _result(records, failures, e2e=None, layers=None, latencies=None, pass_len=0,
            walls=None, setup=None, missing=None, overhead=None) -> dict:
    failed = [f for f in failures if f]
    out = {
        "attempted": len(failures),
        "failed": len(failed),
        "failed_frac": len(failed) / max(len(failures), 1),
        "failures": failed[:5],
        "pass_len": pass_len,
    }
    if e2e is not None:
        out["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
        tail = tail_latency(latencies, pass_len)
        out["query_tail_s"] = (
            {"value": tail[1], "unit": "s", "percentile": tail[0], "samples_beyond": tail[2],
             "samples": len(latencies)} if tail else None
        )
        out["passes"] = len(walls)
        out["pass_walls_s"] = walls
        out["setup_samples_s"] = setup
    if layers is not None:
        out["metrics"] = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        out["missing_targets"] = missing or []
        out["trace_overhead"] = {"value_s": overhead[0], "noise_s": overhead[1],
                                 "resolved": overhead[0] > overhead[1]}
    if records:
        out["queries"] = [{k: v for k, v in r.items() if k != "trace"} for r in records]
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "warm-session":
        res = run_warm(seed, seconds, trace)
    else:
        res = run_cli_workload(workload, seed, seconds, trace)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), **res}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_table(res: dict) -> None:
    head = f"{res['workload']} (seed {res['seed']}, trace {res['trace']})"
    print(head)
    if res["trace"]:
        m = res["metrics"]
        ov = res["trace_overhead"]
        note = "" if ov["resolved"] else f", unresolved: rounds differ by up to {_fmt(ov['noise_s'])} s"
        print(f"  tracing overhead: {_fmt(ov['value_s'])} s{note}; largest layer times:")
        times = sorted(((v["value"], k) for k, v in m.items() if v["unit"] == "s" and k != "trace.overhead_s"),
                       reverse=True)
        for v, k in times[:8]:
            print(f"  {k:44s} {_fmt(v)} s")
    else:
        for k, v in res["metrics"].items():
            print(f"  {k:14s} {_fmt(v['value'])} {v['unit']}")
        tail = res["query_tail_s"]
        if tail:
            print(f"  query_tail_s   {_fmt(tail['value'])} s (p{tail['percentile']:g}, "
                  f"{tail['samples_beyond']} of {tail['samples']} samples beyond)")
    print(f"  failed_frac    {_fmt(res['failed_frac'])} ratio ({res['failed']} of {res['attempted']})")
    for f in res["failures"]:
        print(f"  FAILED: {f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*STRATA, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="write the full results as JSON here")
    args = ap.parse_args()
    if not (SRC / "gl2zeta" / "__init__.py").is_file():
        print(f"error: no gl2zeta sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            results = []
            for w in STRATA:
                for trace in ([False, True] if args.trace else [False]):
                    results.append(run_workload(w, args.seed, args.seconds, trace))
                    print_table(results[-1])
        else:
            results = [run_workload(args.workload, args.seed, args.seconds, bool(args.trace))]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        close_children()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"machine": machine_facts(), "runs": results}, fh, indent=1)
            fh.write("\n")
    if args.workload != "all":
        res = results[0]
        print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
