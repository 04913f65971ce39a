"""Shared pieces of the benchmark: statistics, child processes, machine facts
and the answer reference."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
TMP = ROOT / ".perfbench-tmp"  # child stdout/stderr, one directory per run, removed when it ends

CLI_STUB = "import sys; from gl2zeta.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_STUB = "import gl2zeta.cli"
CHILD_TIMEOUT_S = 150

# answer fields of CLI output compared against the reference
ANSWER_FIELDS = ("value", "generic", "closed_form", "oracle", "verdict", "bracket", "coefficient", "match")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10

CONDITIONS = (
    "Runs used no CPU pinning, no cache dropping and no system-wide tracing; "
    "they share the machine with whatever else runs on it. Peak RSS is per "
    "process, read with getrusage/wait4 (ru_maxrss)."
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- statistics -------------------------------------------------------------


def _rank(p: float, n: int) -> int:
    """Nearest rank ceil(p/100 * n), exact for percentiles given in tenths."""
    return -(-round(p * 10) * n // 1000)


def tail_percentile(n: int):
    """Highest percentile in TAIL_PERCENTILES with at least TAIL_MIN_BEYOND of
    n samples strictly above its nearest-rank position, or None."""
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            return p
    return None


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(samples)
    return xs[max(_rank(p, len(xs)) - 1, 0)]


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def hd_median(samples) -> float:
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)-weighted
    mean of the order statistics.  On a short list of queries of unequal cost
    the sample median jumps from one query to the next when noise reorders
    them; this estimate moves smoothly."""
    xs = sorted(samples)
    n = len(xs)
    a = (n + 1) / 2
    cdf = [beta_cdf(i / n, a, a) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail_latency(samples, pass_len: int):
    """(percentile, value, samples beyond) for the query tail.

    The percentile is chosen from the length of one pass of the query list,
    which is fixed per workload and seed-independent, so it does not change
    between runs that complete a different number of passes."""
    p = tail_percentile(pass_len)
    if p is None:
        return None
    value = percentile(samples, p)
    return p, value, sum(1 for x in samples if x > value)


# -- child processes ----------------------------------------------------------


class Child:
    __slots__ = ("rc", "out", "err", "seconds", "rss_mb")

    def __init__(self, rc, out, err, seconds, rss_mb):
        self.rc, self.out, self.err, self.seconds, self.rss_mb = rc, out, err, seconds, rss_mb


class Spawner:
    """Runs children through ``spawner.py`` so that their peak RSS is their own."""

    def __init__(self):
        self.tmp = TMP / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen([sys.executable, "-S", str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)

    def run(self, argv, timeout: int) -> Child:
        out, err = self.tmp / "stdout", self.tmp / "stderr"
        req = {"argv": list(argv), "out": str(out), "err": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 3:
            raise RuntimeError(f"spawner stopped while running {argv!r}")
        rc, seconds, rss_kib = reply
        return Child(int(rc), out.read_text(), err.read_text(), float(seconds), int(rss_kib) / 1024)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:  # another run in this checkout still uses it
            pass


_spawner: Spawner | None = None


def run_child(argv, timeout: int = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion: wall time from fork to reap, its own peak
    RSS from wait4.  A child still running after ``timeout`` is killed."""
    global _spawner
    if _spawner is None:
        _spawner = Spawner()
    return _spawner.run(argv, timeout)


def close_children() -> None:
    """Stop the spawner (and remove its temporary files); call before exiting."""
    global _spawner
    if _spawner is not None:
        _spawner.close()
        _spawner = None


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_STUB, *argv]


# -- machine facts --------------------------------------------------------------


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": model,
        "platform": platform.platform(),
        "conditions": CONDITIONS,
    }


# -- answers ----------------------------------------------------------------------


def _norm(obj):
    """Parsed JSON with exact numbers normalised and derived floats dropped."""
    if isinstance(obj, dict):
        return {k: _norm(v) for k, v in obj.items() if k != "float"}
    if isinstance(obj, list):
        return [_norm(v) for v in obj]
    if isinstance(obj, str):
        try:
            return str(Fraction(obj))
        except (ValueError, ZeroDivisionError):
            return obj
    return obj


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def cli_answer(argv: list[str], stdout: str) -> dict:
    """The answer fields of one CLI run, parsed from its output.

    JSON output is compared field by field after normalising exact numbers;
    a character table is compared as a digest of its parsed rows (ascii output
    by its whitespace-separated tokens), so padding changes are not failures."""
    cmd = argv[0]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "ascii"
    if cmd == "chartable":
        if fmt == "json":
            doc = json.loads(stdout)
            return {"table": _digest(_norm({k: doc[k] for k in ("classes", "class_sizes", "irreps")}))}
        return {"table": _digest(stdout.split())}
    doc = json.loads(stdout)
    if cmd == "verify":
        return {
            "checks": {c["formula"]: c["status"] for c in doc["checks"]},
            "failed": doc["failed"],
        }
    return {k: _norm(doc[k]) for k in ANSWER_FIELDS if k in doc}


def judge(rc: int, answer: dict | None, reference: dict | None) -> str | None:
    """Why a query failed, or None when it succeeded and matches the reference."""
    if rc != 0:
        return f"exit code {rc}"
    if answer is None:
        return "unparseable output"
    if answer.get("match") is False:
        return "match: false"
    if answer.get("verdict") == "MISMATCH":
        return "verdict MISMATCH"
    if answer.get("failed"):
        return f"verify failed {answer['failed']}"
    if reference is None:
        return "query missing from the reference"
    if answer != reference:
        diff = sorted(k for k in set(answer) | set(reference) if answer.get(k) != reference.get(k))
        return "answer differs from reference: " + ",".join(diff)
    return None


def load_reference(workload: str) -> dict:
    with open(REFERENCE / f"{workload}.json") as fh:
        return json.load(fh)
