"""Command-line interface.

Exit codes: 0 success, 1 usage error (including arguments outside a
formula's domain), 2 verification mismatch or a failed internal exactness
check, 3 enumeration cap exceeded.

Field elements on the command line are addressed by discrete log against
the canonical primitive root (g for F_q, G for the quadratic extension).
Conjugacy classes use the grammar

    c1:K        central/identity class of g^K
    c2:K        unipotent class of [[x,1],[0,x]] with x = g^K
    c3:K or c3:K,L   split class diag(g^K, g^L)  (PGL: diag(g^K, 1))
    c4:K        elliptic class with parameter G^K

and irreducibles (fusion command, GL context)

    linear:A | principal:A,B | steinberg:A | cuspidal:AE

with A, B exponents mod q-1 and AE an exponent mod q^2-1.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from fractions import Fraction

from .zeta import (
    zeta as zeta_sum,
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
from .cyclo import CycNumber
from .ffield import CapExceeded
from .grp import ConjClass, GLContext, PGLContext
from .oracle import GroupTable, brute_hom_count, brute_quotient_count
from .reptheory import CharacterTable, Irrep, _canonical
from .topo import SurfaceSpec, hom_count, quotient_count
from .verify import run_verify

SCHEMA = "mednykh-zeta/1"


class UsageError(ValueError):
    pass


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def ser_exact(v):
    """Exact value -> JSON-able form (rationals as 'num/den' strings)."""
    if isinstance(v, CycNumber):
        r = v.as_rational()
        if r is not None:
            return ser_exact(r)
        f = v.to_float()
        return {
            "conductor": v.n,
            "coeffs": [str(c) for c in v.canonical_coeffs()],
            "float": [f.real, f.imag],
        }
    if isinstance(v, complex):
        return {"float": [v.real, v.imag]}
    return str(Fraction(v))


def render_exact(v) -> str:
    if isinstance(v, CycNumber):
        r = v.as_rational()
        return str(r) if r is not None else str(v)
    if isinstance(v, complex):
        return repr(v)
    return str(Fraction(v))


def _context(group: str, q: int):
    if group == "gl2":
        return GLContext(q)
    if group == "pgl2":
        return PGLContext(q)
    raise UsageError(f"unknown group {group!r}")


def parse_classspec(ctx, spec: str) -> ConjClass:
    try:
        kind, _, rest = spec.partition(":")
        args = [int(x) for x in rest.split(",")] if rest else []
    except ValueError as exc:
        raise UsageError(f"malformed class spec {spec!r}") from exc
    F, E = ctx.field, ctx.ext
    q = ctx.q
    glctx = ctx if ctx.group == "gl" else ctx.gl
    if kind == "c1" and len(args) == 1:
        c = ConjClass("gl", "central", (F.from_dlog(args[0]),))
    elif kind == "c2" and len(args) == 1:
        c = ConjClass("gl", "unipotent", (F.from_dlog(args[0]),))
    elif kind == "c3" and len(args) in (1, 2):
        if len(args) == 1:
            args = [args[0], 0]
        i, j = sorted(a % (q - 1) for a in args)
        if i == j:
            raise UsageError(f"split class needs distinct eigenvalues: {spec!r}")
        c = ConjClass("gl", "diagonal", (F.from_dlog(i), F.from_dlog(j)))
    elif kind == "c4" and len(args) == 1:
        lam = E.from_dlog(args[0])
        if E.in_base(lam):
            raise UsageError(f"c4 parameter G^{args[0]} lies in the base field")
        c = glctx.classify(glctx.elliptic_rep(lam))
    else:
        raise UsageError(f"malformed class spec {spec!r}")
    if ctx.group == "pgl":
        return ctx.project(c)
    return c


def parse_irrepspec(table: CharacterTable, spec: str) -> Irrep:
    kind, _, rest = spec.partition(":")
    try:
        args = tuple(int(x) for x in rest.split(",")) if rest else ()
    except ValueError as exc:
        raise UsageError(f"malformed irrep spec {spec!r}") from exc
    q = table.q
    if len(args) != {"linear": 1, "principal": 2, "steinberg": 1, "cuspidal": 1}.get(kind):
        raise UsageError(f"malformed irrep spec {spec!r}")
    # equal principal exponents and non-primitive cuspidal ones name no irrep
    pi = Irrep("gl", kind, _canonical("gl", q, kind, args))
    if pi not in table.irrep_index:
        raise UsageError(f"irrep spec {spec!r} names no irrep of GL(2,{q})")
    return pi


def irrep_label(table: CharacterTable, pi: Irrep) -> str:
    k = pi.kind
    if k == "principal" and table.group == "gl":
        return f"principal:{pi.params[0]},{pi.params[1]}"
    return f"{k}:{pi.params[0]}"


def parse_s(text: str):
    for conv in (int, float, complex):
        try:
            s = conv(text)
        except ValueError:
            continue
        if conv is not int and not cmath.isfinite(s):
            raise UsageError(f"s = {text!r} is not finite")
        return s
    raise UsageError(f"cannot parse s = {text!r}")


# -- commands -----------------------------------------------------------------


def cmd_chartable(args) -> int:
    ctx = _context(args.group, args.q)
    table = CharacterTable(ctx)
    labels = [ctx.class_label(c) for c in ctx.classes]
    if args.format == "json":
        rows = [
            {
                "irrep": irrep_label(table, pi),
                "dim": table.dim(pi),
                "fs": table.fs_indicator(pi),
                "values": [ser_exact(table.value(pi, c)) for c in ctx.classes],
            }
            for pi in table.irreps
        ]
        sys.stdout.write(_dumps({
            "schema": SCHEMA,
            "command": "chartable",
            "group": args.group,
            "q": args.q,
            "classes": labels,
            "class_sizes": ctx.sizes,
            "irreps": rows,
        }))
    elif args.format == "csv":
        out = ["irrep,dim,fs," + ",".join(labels)]
        for pi in table.irreps:
            vals = ",".join(
                '"' + render_exact(table.value(pi, c)) + '"' for c in ctx.classes
            )
            out.append(f"{irrep_label(table, pi)},{table.dim(pi)},{table.fs_indicator(pi)},{vals}")
        sys.stdout.write("\n".join(out) + "\n")
    else:
        width = 16
        head = ["irrep".ljust(18), "dim".rjust(4), "fs".rjust(3)] + [
            label.center(width) for label in labels
        ]
        lines = ["".join(head)]
        lines.append(
            "".join(
                ["size".ljust(18), "".rjust(4), "".rjust(3)]
                + [str(sz).center(width) for sz in ctx.sizes]
            )
        )
        for pi in table.irreps:
            cells = [render_exact(table.value(pi, c)).center(width) for c in ctx.classes]
            lines.append(
                "".join(
                    [
                        irrep_label(table, pi).ljust(18),
                        str(table.dim(pi)).rjust(4),
                        str(table.fs_indicator(pi)).rjust(3),
                    ]
                    + cells
                )
            )
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_zeta(args) -> int:
    ctx = _context(args.group, args.q)
    table = CharacterTable(ctx)
    s = parse_s(args.s)
    insertions = [parse_classspec(ctx, spec) for spec in args.insert or []]
    fs_filter = {"+1": 1, "1": 1, "0": 0, "-1": -1}.get(args.fs) if args.fs else None
    if fs_filter is not None and (insertions or args.double):
        raise UsageError("--fs does not combine with --insert or --double")
    if insertions and args.double:
        raise UsageError("--double does not combine with --insert")
    mode = args.mode

    # each side as its Dirichlet polynomial (s = None), evaluated at s below
    def generic():
        if args.double:
            return zeta_double(table, None)
        if insertions:
            return zeta_insert(table, insertions, None)
        if fs_filter is not None:
            return zeta_fs(table, fs_filter, None)
        return zeta_sum(table, None)

    def closed():
        if args.double:
            if args.group != "gl2":
                raise UsageError("--double closed form is for gl2")
            return zeta_double_closed(args.q, None)
        if insertions:
            return zeta_insert_closed(table, insertions, None)
        if fs_filter is not None:
            fn = zeta_fs_closed_gl if args.group == "gl2" else zeta_fs_closed_pgl
            return fn(args.q, fs_filter, None)
        fn = zeta_closed_gl if args.group == "gl2" else zeta_closed_pgl
        return fn(args.q, None)

    doc = {
        "schema": SCHEMA,
        "command": "zeta",
        "group": args.group,
        "q": args.q,
        "s": args.s,
        "insertions": [ctx.class_label(c) for c in insertions],
    }
    exit_code = 0
    a = generic() if mode in ("generic", "both") else None
    b = closed() if mode in ("closed-form", "both") else None
    values = {"generic": a, "closed_form": b}
    if mode == "both":
        values["difference"] = a - b
    for key, poly in values.items():
        if poly is None:
            continue
        v = poly.at(s)
        if isinstance(v, complex) and not cmath.isfinite(v):
            raise OverflowError(f"zeta at s = {args.s} is not a finite float")
        doc[key] = ser_exact(v)
    if mode == "both":
        # equal polynomials are equal at every s
        doc["match"] = a == b
        if not doc["match"]:
            exit_code = 2
    if args.format == "json":
        sys.stdout.write(_dumps(doc))
    elif args.format == "csv":
        keys = [k for k in ("generic", "closed_form", "difference", "match") if k in doc]
        sys.stdout.write(",".join(keys) + "\n")
        sys.stdout.write(",".join(f'"{doc[k]}"' for k in keys) + "\n")
    else:
        for key in ("generic", "closed_form", "difference", "match"):
            if key in doc:
                sys.stdout.write(f"{key}: {doc[key]}\n")
    return exit_code


def cmd_count(args) -> int:
    ctx = _context(args.group, args.q)
    table = CharacterTable(ctx)
    insertions = tuple(parse_classspec(ctx, spec) for spec in args.insert or [])
    spec = SurfaceSpec(args.orientable, args.genus, insertions)
    if args.quotient:
        result = quotient_count(table, spec)
    else:
        result = hom_count(table, spec)
    doc = {
        "schema": SCHEMA,
        "command": "count",
        "group": args.group,
        "q": args.q,
        "genus": args.genus,
        "orientable": args.orientable,
        "insertions": [ctx.class_label(c) for c in insertions],
        "normalization": result.normalization,
        "value": ser_exact(result.value),
    }
    exit_code = 0
    if args.oracle:
        gtable = GroupTable(ctx)
        if args.quotient:
            brute = brute_quotient_count(gtable, spec, "burnside")
        else:
            brute = brute_hom_count(gtable, spec)
        doc["oracle"] = ser_exact(brute)
        doc["verdict"] = "MATCH" if brute == result.value else "MISMATCH"
        if brute != result.value:
            exit_code = 2
    if args.format == "json":
        sys.stdout.write(_dumps(doc))
    elif args.format == "csv":
        keys = [k for k in ("value", "normalization", "oracle", "verdict") if k in doc]
        sys.stdout.write(",".join(keys) + "\n")
        sys.stdout.write(",".join(f'"{doc[k]}"' for k in keys) + "\n")
    else:
        sys.stdout.write(f"value: {doc['value']} ({result.normalization})\n")
        if args.oracle:
            sys.stdout.write(f"oracle: {doc['oracle']}\nverdict: {doc['verdict']}\n")
    return exit_code


def cmd_fusion(args) -> int:
    ctx = GLContext(args.q)
    table = CharacterTable(ctx)
    exit_code = 0
    if args.triple:
        pis = [parse_irrepspec(table, spec) for spec in args.triple]
        bracket = table.triple_bracket(*pis)
        closed = table.reduced_bracket(*pis)
        coeff = table.fusion_coeff(*pis)
        # the coefficient is <pi1 pi2 pi3*>: a wrong dual shows here
        match = bracket == closed and coeff == table.reduced_bracket(
            pis[0], pis[1], table.contragredient(pis[2])
        )
        doc = {
            "schema": SCHEMA,
            "command": "fusion",
            "q": args.q,
            "triple": [irrep_label(table, pi) for pi in pis],
            "bracket": ser_exact(bracket),
            "closed_form": ser_exact(Fraction(closed)),
            "coefficient": ser_exact(Fraction(coeff)),
            "match": match,
        }
        if not match:
            exit_code = 2
        rows = [doc]
    else:
        irr = table.irreps
        rows = []
        mismatches = 0
        for i in range(len(irr)):
            for j in range(i, len(irr)):
                for k in range(j, len(irr)):
                    got = table.triple_bracket(irr[i], irr[j], irr[k])
                    want = table.reduced_bracket(irr[i], irr[j], irr[k])
                    if got != want:
                        mismatches += 1
                    rows.append(
                        {
                            "triple": [
                                irrep_label(table, irr[i]),
                                irrep_label(table, irr[j]),
                                irrep_label(table, irr[k]),
                            ],
                            "bracket": ser_exact(got),
                            "closed_form": ser_exact(Fraction(want)),
                        }
                    )
        doc = {
            "schema": SCHEMA,
            "command": "fusion",
            "q": args.q,
            "triples": rows,
            "mismatches": mismatches,
            "verdict": "MATCH" if mismatches == 0 else "MISMATCH",
        }
        if mismatches:
            exit_code = 2
    if args.format == "json":
        sys.stdout.write(_dumps(doc))
    else:
        if args.triple:
            sys.stdout.write(
                f"bracket: {doc['bracket']}  closed: {doc['closed_form']}  "
                f"coefficient: {doc['coefficient']}\n"
            )
        else:
            nonzero = sum(1 for r in rows if r["bracket"] != "0")
            sys.stdout.write(
                f"{len(rows)} unordered triples, {nonzero} nonzero brackets, "
                f"verdict: {doc['verdict']}\n"
            )
    return exit_code


def cmd_verify(args) -> int:
    results = run_verify(args.q, deep=args.deep)
    doc = {
        "schema": SCHEMA,
        "command": "verify",
        "q": args.q,
        "deep": args.deep,
        "checks": [
            {"formula": r.name, "status": r.status, "note": r.note} for r in results
        ],
        "passed": sum(1 for r in results if r.status == "pass"),
        "failed": sum(1 for r in results if r.status == "fail"),
        "skipped": sum(1 for r in results if r.status == "skip"),
    }
    sys.stdout.write(_dumps(doc))
    return 2 if doc["failed"] else 0


def cmd_show_field(args) -> int:
    ctx = GLContext(args.q)
    F, E = ctx.field, ctx.ext
    doc = {
        "schema": SCHEMA,
        "command": "show-field",
        "q": args.q,
        "p": F.p,
        "e": F.e,
        "modpoly": list(F.modpoly),
        "primitive_root": list(F.coeffs(F.g)),
        "extension": {
            "primitive_root": [list(F.coeffs(x)) for x in E.unpack(E.G)],
            "nonsquare" if args.q % 2 else "artin_schreier_constant": list(
                F.coeffs(E.delta_sq if args.q % 2 else E.artin_c)
            ),
        },
        "dlog": {
            str(k): list(F.coeffs(F.from_dlog(k))) for k in range(args.q - 1)
        },
    }
    if args.format == "json":
        sys.stdout.write(_dumps(doc))
    else:
        sys.stdout.write(f"F_{args.q} = F_{F.p}^{F.e}, defining poly {doc['modpoly']}\n")
        sys.stdout.write(f"g = {doc['primitive_root']} (coefficient vector)\n")
        for k in range(args.q - 1):
            sys.stdout.write(f"  g^{k} = {doc['dlog'][str(k)]}\n")
    return 0


# -- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="gl2zeta", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp, group=True):
        if group:
            sp.add_argument("--group", choices=["gl2", "pgl2"], default="gl2")
        sp.add_argument("--q", type=int, required=True, help="prime power")
        sp.add_argument("--format", choices=["ascii", "json", "csv"], default="ascii")

    sp = sub.add_parser("chartable", help="print the full character table")
    add_common(sp)
    sp.set_defaults(fn=cmd_chartable)

    sp = sub.add_parser("zeta", help="representation zeta values")
    add_common(sp)
    sp.add_argument("--s", required=True,
                    help="argument: an integer gives an exact rational; a real or complex "
                         "float evaluates the exact Dirichlet polynomial in complex floats")
    sp.add_argument("--insert", action="append", metavar="CLASSSPEC")
    sp.add_argument("--fs", choices=["+1", "0", "-1"])
    sp.add_argument("--double", action="store_true")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--closed-form", dest="mode", action="store_const",
                       const="closed-form", default="generic")
    group.add_argument("--generic", dest="mode", action="store_const", const="generic")
    group.add_argument("--both", dest="mode", action="store_const", const="both")
    sp.set_defaults(fn=cmd_zeta)

    sp = sub.add_parser("count", help="surface-group homomorphism counts")
    add_common(sp)
    sp.add_argument("--genus", type=int, required=True)
    og = sp.add_mutually_exclusive_group(required=True)
    og.add_argument("--orientable", dest="orientable", action="store_true")
    og.add_argument("--non-orientable", dest="orientable", action="store_false")
    sp.add_argument("--insert", action="append", metavar="CLASSSPEC")
    sp.add_argument("--quotient", action="store_true")
    sp.add_argument("--oracle", action="store_true")
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("fusion", help="fusion coefficients (GL context)")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--format", choices=["ascii", "json"], default="ascii")
    fg = sp.add_mutually_exclusive_group(required=True)
    fg.add_argument("--triple", nargs=3, metavar="IRREPSPEC")
    fg.add_argument("--all", action="store_true")
    sp.set_defaults(fn=cmd_fusion)

    sp = sub.add_parser("verify", help="run the named verification suite")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--deep", action="store_true", help="raise enumeration caps")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("show-field", help="print the field's dlog table")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--format", choices=["ascii", "json"], default="ascii")
    sp.set_defaults(fn=cmd_show_field)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ValueError, OverflowError) as exc:
        # usage errors, field errors, library ValueErrors (ClosedFormUnavailable,
        # an out-of-range genus) and float s too large in magnitude
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, AssertionError) as exc:
        # an inexact count or a failed internal consistency check: a table bug
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
