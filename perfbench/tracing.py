"""Spans and counters installed around gl2zeta's public entry points from outside.

Nothing under ``src/`` is changed: ``install`` replaces functions and methods
in the already imported ``gl2zeta`` modules with thin wrappers.  A span wrapper
records ``(name, start, end, parent, query)`` in memory; a counter wrapper only
increments a number, and is used for per-element calls whose span overhead
would swamp the run.  Hot per-element helpers (``GroupTable.mul``,
``Field.mul``) are deliberately not wrapped at all.

The per-layer metrics reported by the benchmark are the self times of the
spans of each layer (span duration minus the time covered by its child spans)
and the counts below.  ``PER_LAYER`` is the list mirrored in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# metric -> wrapped "module:qualname" targets; every span's self time lands here
SPAN_METRICS = {
    "reptheory.table_build_s": ["reptheory:CharacterTable.__init__"],
    "reptheory.fusion_s": [
        "reptheory:CharacterTable.pair_bracket",
        "reptheory:CharacterTable.triple_bracket",
        "reptheory:CharacterTable.fusion_coeff",
        "reptheory:CharacterTable.reduced_bracket",
    ],
    "cyclo.canonical_s": ["cyclo:CycNumber.canonical_coeffs"],
    "cyclo.to_float_s": ["cyclo:CycNumber.to_float"],
    "cli.serialize_s": ["cli:ser_exact", "cli:render_exact", "cli:_dumps"],
    "zeta.generic_s": [
        "zeta:zeta",
        "zeta:zeta_fs",
        "zeta:zeta_insert",
        "zeta:zeta_insert_elements",
        "zeta:zeta_double",
    ],
    "zeta.closed_s": [
        "zeta:zeta_closed_gl",
        "zeta:zeta_closed_pgl",
        "zeta:zeta_fs_closed_gl",
        "zeta:zeta_fs_closed_pgl",
        "zeta:zeta_insert_closed",
        "zeta:zeta_double_closed",
    ],
    "topo.hom_count_s": ["topo:hom_count"],
    "topo.quotient_count_s": ["topo:quotient_count", "topo:induced_char_value"],
    "topo.spectral_s": [
        "topo:theta_torus_spectral",
        "topo:theta_square_spectral",
        "topo:class_indicator_spectral",
        "topo:convolve_spectral",
        "topo:fourier_coefficients",
    ],
    "oracle.group_table_s": ["oracle:GroupTable.__init__"],
    "oracle.theta_s": [
        "oracle:GroupTable.theta_torus",
        "oracle:GroupTable.theta_square",
        "oracle:compute_theta",
    ],
    "oracle.convolve_s": ["oracle:GroupTable.convolve"],
    "oracle.brute_hom_s": ["oracle:brute_hom_count"],
    "oracle.brute_quotient_s": ["oracle:brute_quotient_count"],
    "grp.context_s": ["grp:GLContext.__init__", "grp:PGLContext.__init__"],
    "ffield.build_s": ["ffield:Field.__init__", "ffield:ExtField.__init__"],
    "chars.orbits_s": ["chars:enumerate_M", "chars:enumerate_N"],
}

# count metric -> span metrics whose spans it counts
SPAN_COUNTS = {
    "reptheory.table_builds": ["reptheory.table_build_s"],
    "reptheory.fusion_calls": ["reptheory.fusion_s"],
    "cyclo.canonical_calls": ["cyclo.canonical_s"],
    "zeta.calls": ["zeta.generic_s", "zeta.closed_s"],
    "grp.contexts": ["grp.context_s"],
    "ffield.builds": ["ffield.build_s"],
}

# count metric -> targets that only increment it (no span)
CALL_COUNTERS = {
    "reptheory.value_calls": ["reptheory:CharacterTable.value"],
    "cyclo.mul_calls": ["cyclo:CycNumber.__mul__", "cyclo:CycNumber.__rmul__"],
    "grp.classify_calls": ["grp:GLContext.classify"],
}

# generator whose yielded items are counted (PGL enumeration scans this list)
ELEMENT_COUNTER = ("grp:GLContext.enumerate_group", "grp.enumerated_elements")

# the names in gl2zeta.verify.CHECKS when this benchmark was defined
VERIFY_CHECKS = [
    "field-extension-structure",
    "dlog-homomorphism",
    "base-character-orthogonality",
    "character-pair-sum-identity",
    "galois-orbit-character-sum-identity",
    "cuspidal-restriction-sum-identity",
    "class-equation",
    "involution-count",
    "character-table-orthogonality",
    "sum-of-squared-dimensions",
    "frobenius-schur-rules-vs-defining-sum",
    "fusion-closed-forms",
    "fusion-dimension-identity",
    "zeta-closed-forms",
    "zeta-at-minus-two-burnside",
    "zeta-insertion-closed-forms",
    "zeta-insertion-determinant-vanishing",
    "zeta-double-closed-form",
    "mednykh-closed-orientable-vs-oracle",
    "boundary-insertions-vs-oracle",
    "nonorientable-vs-oracle",
    "nonorientable-boundary-vs-oracle",
    "quotient-counts-vs-oracle",
    "boundary-quotient-vs-oracle",
    "theta-spectral-vs-enumerative",
    "spectral-convolution-diagonalization",
]
VERIFY_COUNTS = ["verify.skipped", "verify.failed"]

# measured by the harness, not by wrappers
HARNESS_METRICS = {"cli.process_s": "s", "trace.overhead_s": "s"}


def _per_layer() -> dict[str, str]:
    units = {}
    for m in SPAN_METRICS:
        units[m] = "s"
    for m in [*SPAN_COUNTS, *CALL_COUNTERS, ELEMENT_COUNTER[1], *VERIFY_COUNTS]:
        units[m] = "count"
    for name in VERIFY_CHECKS:
        units[f"verify.{name}_s"] = "s"
    units.update(HARNESS_METRICS)
    return dict(sorted(units.items()))


PER_LAYER = _per_layer()  # metric -> unit


class Tracer:
    """In-memory span list and counters for one process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, query id)
        self.stack: list[int] = []
        self.query = None
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []  # targets absent from the program

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[i] = (name, t0, t1, parent, self.query)

        return wrapper

    def counter(self, metric: str, fn):
        counters = self.counters
        counters.setdefault(metric, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def element_counter(self, metric: str, gen_fn):
        counters = self.counters
        counters.setdefault(metric, 0)

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in gen_fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counters[metric] += n

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (one thread), so this is the part of
    the span's interval not covered by child spans."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[i] for i, (_, t0, t1, _, _) in enumerate(spans)]


def _replace_everywhere(orig, new) -> None:
    """Rebind every module-level reference to ``orig`` in gl2zeta modules,
    including names imported with ``from .x import f [as g]``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gl2zeta" or modname.startswith("gl2zeta.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _patch(tracer: Tracer, target: str, make) -> None:
    modname, _, qual = target.partition(":")
    mod = sys.modules.get(f"gl2zeta.{modname}")
    owner_name, _, attr = qual.rpartition(".")
    owner = getattr(mod, owner_name, None) if owner_name else mod
    orig = vars(owner).get(attr) if owner is not None else None
    if orig is None:
        tracer.missing.append(target)
        return
    new = make(orig)
    if owner_name:
        setattr(owner, attr, new)
    else:
        _replace_everywhere(orig, new)


def install(tracer: Tracer) -> None:
    """Wrap the listed entry points of the imported gl2zeta package."""
    for name in ("cli", "chars", "cyclo", "ffield", "grp", "oracle", "reptheory", "topo", "verify", "zeta"):
        importlib.import_module(f"gl2zeta.{name}")
    for targets in SPAN_METRICS.values():
        for target in targets:
            _patch(tracer, target, lambda fn, t=target: tracer.span(t, fn))
    for metric, targets in CALL_COUNTERS.items():
        for target in targets:
            _patch(tracer, target, lambda fn, m=metric: tracer.counter(m, fn))
    target, metric = ELEMENT_COUNTER
    _patch(tracer, target, lambda fn: tracer.element_counter(metric, fn))

    verify = sys.modules["gl2zeta.verify"]
    for i, fn in enumerate(verify.CHECKS):
        verify.CHECKS[i] = tracer.span(f"verify:{fn._check_name}", fn)

    def run_verify_counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            results = fn(*args, **kwargs)
            for status in ("skip", "fail"):
                key = "verify.skipped" if status == "skip" else "verify.failed"
                tracer.counters[key] = tracer.counters.get(key, 0) + sum(
                    1 for r in results if r.status == status
                )
            return results

        return wrapper

    _patch(tracer, "verify:run_verify", run_verify_counted)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time per span metric, span counts and counters for every wrapped
    layer metric; metrics the harness measures itself are left out."""
    metric_of = {t: m for m, targets in SPAN_METRICS.items() for t in targets}
    out: dict[str, float] = {m: 0 for m in PER_LAYER if m not in HARNESS_METRICS}
    spans_per_metric: dict[str, int] = {}
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        name = span[0]
        if name.startswith("verify:"):
            metric = f"verify.{name[len('verify:'):]}_s"
            if metric not in out:
                continue
        else:
            metric = metric_of[name]
        out[metric] += self_s
        spans_per_metric[metric] = spans_per_metric.get(metric, 0) + 1
    for count, metrics in SPAN_COUNTS.items():
        out[count] = sum(spans_per_metric.get(m, 0) for m in metrics)
    for metric, value in tracer.counters.items():
        out[metric] = value
    return out
