"""Command-line front end: classify | sample | atlas | oracle-check.

Reports are JSON on stdout (or --out), schema version 1, with homogeneous
coordinates emitted as decimal strings so no consumer is tempted to read field
elements as floats.  Identical configuration and seed produce byte-identical
reports.

Each point is analysed once: `classify` reads the signature and the strata
from the same cached secant analysis, and no option changes the mathematics
(one polar solve over GF(q) gives the answer over the algebraic closure).

Exit codes: 0 success/agreement, 2 unclassifiable signature data, 3 label
disagreement, failed verification or a broken invariant (InvariantError), 64
usage/parse errors (argparse's too, negative counts or budgets, atlas bounds
that admit no scroll, sizes past `SIZE_MAX` and counts past `COUNT_MAX` among
them) and an --out file that cannot be written, 65 point on the variety, 66
over budget.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .delpezzo import (
    atlas_enumerate,
    depth_predict,
    draw_external_point,
    is_del_pezzo,
    locus_fills_ambient,
    sample_inside_locus,
    sample_outside_locus,
)
from .errors import (
    BudgetExceededError,
    InvariantError,
    PointOnVarietyError,
    ScrollParseError,
    ScrollsecError,
    UnclassifiableSignatureError,
)
from .exactfield import field_make, normalize_point
from .oracle import brute_membership, brute_secant_locus, check_lift_equalities
from .scroll import parse_scroll, scroll_literal
from .secant import SIGNATURE_TABLE, classify_with_data, secant_locus_points
from .strata import stratum_geometric

EXIT_OK = 0
EXIT_UNCLASSIFIABLE = 2
EXIT_DISAGREEMENT = 3
EXIT_USAGE = 64
EXIT_ON_VARIETY = 65
EXIT_BUDGET = 66

DEFAULT_Q = 10007
ORACLE_Q_MAX = 101
# the largest degree sum and vertex dimension of a scroll literal, --max-deg
# and --max-h: the generators grow as deg^2 and the atlas walk as max_deg^3
SIZE_MAX = 64
# the largest --n and --verify-samples: the work is linear in them, and an
# oracle-check point can take a second
COUNT_MAX = 100_000


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            # exits 64 like any other bad argument, before anything reaches stdout
            raise ScrollsecError(f"cannot write the report: {exc}") from exc
    sys.stdout.write(text)


def _coords_str(p) -> list:
    return [str(x) for x in p]


# example points named per side of a secant-locus-set diff of oracle-check
DIFF_EXAMPLES = 3


def _examples(points) -> list:
    """The first `DIFF_EXAMPLES` of a set of points in sorted order, as
    coordinate strings."""
    return [_coords_str(p) for p in sorted(points)[:DIFF_EXAMPLES]]


def _parse_scroll(text: str):
    spec = parse_scroll(text)
    if spec.deg > SIZE_MAX or spec.h > SIZE_MAX:
        raise ScrollParseError(
            f"scroll {text!r}: degree sum and vertex dimension must be <= {SIZE_MAX}")
    return spec


def _parse_point(text: str, ctx):
    try:
        vals = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ScrollParseError(f"bad point literal {text!r}") from exc
    return normalize_point(ctx, vals)


def _classify_report(spec, ctx, p):
    sig, _, _, _ = classify_with_data(spec, ctx, p)
    report = stratum_geometric(spec, ctx, p)
    depth = depth_predict(spec, sig, report.in_Sec)
    return {
        "scroll": scroll_literal(spec),
        "point": _coords_str(p),
        "q": ctx.q,
        "s": sig.s,
        "rank": sig.rank,
        "label": sig.label,
        "dim_sigma": sig.locus_dim,
        "sec_dim": sig.sec_dim,
        "depth": depth.depth,
        "acm": depth.acm,
        "del_pezzo": depth.acm,
        "del_pezzo_case": depth.del_pezzo_case,
        "linearly_normal": depth.linearly_normal,
        "memberships": {
            "A": report.in_A,
            "B": report.in_B,
            "U": report.in_U,
            "Tan": report.in_Tan,
            "Sec": report.in_Sec,
        },
        "label_geom": report.label_geom,
        "agreement": report.agrees_with_signature,
    }


def run_classify(args) -> int:
    spec = _parse_scroll(args.scroll)
    ctx = field_make(args.q, 1)
    p = _parse_point(args.point, ctx)
    try:
        result = _classify_report(spec, ctx, p)
    except UnclassifiableSignatureError as exc:
        _emit(
            {
                "schema": 1,
                "command": "classify",
                "error": "UnclassifiableSignature",
                "detail": str(exc),
                "s": exc.s,
                "rank": exc.rank,
            },
            args.out,
        )
        return EXIT_UNCLASSIFIABLE
    _emit({"schema": 1, "command": "classify", "result": result}, args.out)
    return EXIT_OK if result["agreement"] else EXIT_DISAGREEMENT


def _random_external_point(spec, ctx, rng):
    while (p := draw_external_point(spec, ctx, rng)) is None:
        pass
    return p


def run_sample(args) -> int:
    spec = _parse_scroll(args.scroll)
    ctx = field_make(args.q, 1)
    rng = random.Random(args.seed)
    census = dict.fromkeys(SIGNATURE_TABLE.values(), 0)
    disagreements = 0
    unclassifiable = 0
    for _ in range(args.n):
        p = _random_external_point(spec, ctx, rng)
        try:
            report = stratum_geometric(spec, ctx, p)
        except UnclassifiableSignatureError:
            unclassifiable += 1
            continue
        census[report.label_geom] += 1
        if not report.agrees_with_signature:
            disagreements += 1
    _emit(
        {
            "schema": 1,
            "command": "sample",
            "config": {
                "scroll": scroll_literal(spec),
                "q": ctx.q,
                "n": args.n,
                "seed": args.seed,
            },
            "result": {
                "census": census,
                "agreement_failures": disagreements,
                "unclassifiable": unclassifiable,
            },
        },
        args.out,
    )
    if unclassifiable:
        return EXIT_UNCLASSIFIABLE
    return EXIT_OK if disagreements == 0 else EXIT_DISAGREEMENT


def run_atlas(args) -> int:
    ctx = field_make(args.q, 1)
    rng = random.Random(args.seed)
    entries = atlas_enumerate(args.max_deg, args.max_n, args.max_h)
    out_entries = []
    clean = True
    for entry in entries:
        spec = parse_scroll(entry.scroll)
        # every inside draw, then every outside draw, from one generator
        draws = [(sample_inside_locus, True)]
        if not locus_fills_ambient(entry.locus_kind, spec):
            draws.append((sample_outside_locus, False))
        acm = {True: 0, False: 0}
        for sample, inside in draws:
            for _ in range(args.verify_samples):
                p = sample(entry.locus_kind, spec, ctx, rng)
                sig, _, _, _ = classify_with_data(spec, ctx, p)
                acm[inside] += is_del_pezzo(spec, sig)
        inside_ok, outside_acm = acm[True], acm[False]
        outside_total = args.verify_samples * (len(draws) - 1)
        ok = inside_ok == args.verify_samples and outside_acm == 0
        clean = clean and ok
        out_entries.append(
            {
                "scroll": entry.scroll,
                "a": list(entry.a),
                "h": entry.h,
                "case": entry.case,
                "locus_kind": entry.locus_kind,
                "locus": entry.locus,
                "verify": {
                    "inside_acm": inside_ok,
                    "inside_total": args.verify_samples,
                    "outside_acm": outside_acm,
                    "outside_total": outside_total,
                },
            }
        )
    _emit(
        {
            "schema": 1,
            "command": "atlas",
            "config": {
                "max_deg": args.max_deg,
                "max_n": args.max_n,
                "max_h": args.max_h,
                "q": ctx.q,
                "seed": args.seed,
                "verify_samples": args.verify_samples,
            },
            "result": {"entries": out_entries, "verified": clean},
        },
        args.out,
    )
    return EXIT_OK if clean else EXIT_DISAGREEMENT


def run_oracle_check(args) -> int:
    spec = _parse_scroll(args.scroll)
    if args.q > ORACLE_Q_MAX:
        raise ScrollParseError(f"oracle commands need q <= {ORACLE_Q_MAX}")
    base_ctx = field_make(args.q, 1)
    rng = random.Random(args.seed)
    diffs = []
    checked = 0
    for _ in range(args.n):
        p = _random_external_point(spec, base_ctx, rng)
        for d in range(1, args.d + 1):
            ctx_d = field_make(args.q, d)
            brute = brute_secant_locus(spec, ctx_d, p, args.budget)
            fast = secant_locus_points(spec, ctx_d, p, args.budget)
            if brute != fast:
                diffs.append(
                    {
                        "point": _coords_str(p),
                        "d": d,
                        "kind": "secant-locus-set",
                        "brute_size": len(brute),
                        "fast_size": len(fast),
                        "brute_only": _examples(brute - fast),
                        "fast_only": _examples(fast - brute),
                    }
                )
            if d == 2:
                brep = brute_membership(spec, ctx_d, p, args.budget)
                frep = stratum_geometric(spec, base_ctx, p)
                if brep != frep:
                    diffs.append(
                        {
                            "point": _coords_str(p),
                            "d": d,
                            "kind": "membership-report",
                            "brute": brep.label_geom,
                            "fast": frep.label_geom,
                        }
                    )
                for problem in check_lift_equalities(spec, ctx_d, p, args.budget):
                    diffs.append(
                        {"point": _coords_str(p), "d": d, "kind": problem}
                    )
            checked += 1
    _emit(
        {
            "schema": 1,
            "command": "oracle-check",
            "config": {
                "scroll": scroll_literal(spec),
                "q": args.q,
                "d": args.d,
                "n": args.n,
                "seed": args.seed,
            },
            "result": {"checked": checked, "diffs": diffs},
        },
        args.out,
    )
    return EXIT_OK if not diffs else EXIT_DISAGREEMENT


def int_between(low: int, high: int | None = None):
    """argparse type of an int >= low, and <= high when given: a count up to
    `COUNT_MAX` or a budget (low 0), or an atlas bound between the smallest
    scroll and `SIZE_MAX`."""

    def bounded(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        if high is not None and n > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {n}")
        return n

    bounded.__name__ = "int"  # argparse's "invalid int value" for a non-integer
    return bounded


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scrollsec",
        description="Secant-locus classification of rational normal scrolls over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, q_default):
        sp.add_argument("--q", type=int, default=q_default)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("classify", help="classify one external point")
    sp.add_argument("--scroll", required=True)
    sp.add_argument("--point", required=True)
    common(sp, DEFAULT_Q)
    sp.set_defaults(func=run_classify)

    sp = sub.add_parser("sample", help="stratum census of random external points")
    sp.add_argument("--scroll", required=True)
    sp.add_argument("--n", type=int_between(0, COUNT_MAX), default=200)
    common(sp, DEFAULT_Q)
    sp.set_defaults(func=run_sample)

    sp = sub.add_parser("atlas", help="emit the Del Pezzo atlas with verification")
    sp.add_argument("--max-deg", type=int_between(3, SIZE_MAX), default=6)
    sp.add_argument("--max-n", type=int_between(1), default=4)
    sp.add_argument("--max-h", type=int_between(-1, SIZE_MAX), default=1)
    sp.add_argument("--verify-samples", type=int_between(0, COUNT_MAX), default=50)
    common(sp, DEFAULT_Q)
    sp.set_defaults(func=run_atlas)

    sp = sub.add_parser("oracle-check", help="cross-validate against brute force")
    sp.add_argument("--scroll", required=True)
    sp.add_argument("--n", type=int_between(0, COUNT_MAX), default=25)
    sp.add_argument("--d", type=int, default=2, choices=(1, 2))
    sp.add_argument("--budget", type=int_between(0), default=10**7)
    common(sp, 7)
    sp.set_defaults(func=run_oracle_check)
    return parser


# (error type, exit code, message prefix), the first match wins; every other
# ScrollsecError, ScrollParseError included, is a usage error
_ERROR_EXITS = (
    (PointOnVarietyError, EXIT_ON_VARIETY, ""),
    (BudgetExceededError, EXIT_BUDGET, ""),
    (UnclassifiableSignatureError, EXIT_UNCLASSIFIABLE, "unclassifiable signature: "),
    (InvariantError, EXIT_DISAGREEMENT, "internal invariant failed: "),
    (ScrollsecError, EXIT_USAGE, ""),
)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a point literal such as -1,0,0,1 as an option unless joined
    for i in range(len(argv) - 1, 0, -1):
        flag, value = argv[i - 1], argv[i]
        if len(flag) > 2 and "--point".startswith(flag) and value[:1] == "-" and value[1:2].isdigit():
            argv[i - 1:i + 1] = [f"{flag}={value}"]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage line and its error, or the help text;
        # its exit 2 would read as "unclassifiable signature"
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ScrollsecError as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in _ERROR_EXITS
                            if isinstance(exc, kind))
        sys.stderr.write(f"error: {prefix}{exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
