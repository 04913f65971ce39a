"""Record the answer reference and query pools of every workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Builds the pool candidates of each stratum (fixed generator seed), runs every
candidate once through the program and writes ``reference/<workload>.json``
with the pools and the parsed answer fields.  A candidate that fails is left
out of its pool and reported.  Run this only at a commit whose answers are
trusted: later runs count every answer that differs as a failed query.
"""

from __future__ import annotations

import json
import random
import sys

from harness import REFERENCE, SRC, cli_answer, cli_argv, close_children, judge, run_child
from workloads import STRATA, cold_formula_candidates, enumeration_candidates

POOL_SEED = 20151211


def record_cli(pools: dict[str, list[str]]) -> dict:
    answers, kept = {}, {}
    for stratum, cands in pools.items():
        kept[stratum] = []
        for cmd in dict.fromkeys(cands):
            argv = cmd.split()
            c = run_child(cli_argv(argv))
            answer = cli_answer(argv, c.out) if c.rc == 0 else None
            why = judge(c.rc, answer, answer)
            print(f"{c.seconds:7.2f}s {'ok' if why is None else why}: {cmd}", flush=True)
            if why is None:
                kept[stratum].append(cmd)
                answers[cmd] = answer
    return {"pools": kept, "answers": answers}


def record_warm(rng: random.Random) -> dict:
    import session

    tables = session.build_tables()
    calls = session.Calls(tables)
    answers, kept = {}, {}
    for stratum, keys in session.candidates(tables, rng).items():
        kept[stratum] = []
        for key in dict.fromkeys(keys):
            try:
                answers[key] = calls.make(key)()
            except Exception as exc:  # report and leave the candidate out
                print(f"dropped {key}: {type(exc).__name__}: {exc}", flush=True)
                continue
            kept[stratum].append(key)
    return {"pools": kept, "answers": answers}


def main() -> int:
    sys.path.insert(0, str(SRC))
    for workload in sys.argv[1:] or list(STRATA):
        rng = random.Random(POOL_SEED)
        if workload == "warm-session":
            ref = record_warm(rng)
        elif workload == "cold-formula":
            ref = record_cli(cold_formula_candidates(rng))
        else:
            ref = record_cli(enumeration_candidates(rng))
        empty = [s for s in STRATA[workload] if not ref["pools"].get(s)]
        if empty:
            print(f"error: empty pools in {workload}: {empty}", file=sys.stderr)
            return 1
        REFERENCE.mkdir(exist_ok=True)
        with open(REFERENCE / f"{workload}.json", "w") as fh:
            json.dump(ref, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(ref['answers'])} answers", flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        close_children()
