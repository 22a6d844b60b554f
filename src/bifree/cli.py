"""Command-line entry point.

Three command groups:

    nc         enumeration, Kreweras complements and ASCII diagrams for
               non-crossing and bi-non-crossing partitions
    transform  partial transforms of a cumulant table read from JSON
    verify     seeded verification suites for the multiplicativity
               theorems, the class-sum identities and the foundational
               series identities

Exit codes: 0 all checks pass, 1 a verification found a mismatch, 2 usage
or input error (bad JSON, unnormalized table, cap exceeded).  Identical
seed and flags give byte-identical output.  The enumeration cap can be
raised with the BIFREE_CAP environment variable.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .bicum import (
    BiFreeFamily,
    PairDistribution,
    random_family,
    random_pair_distribution,
)
from .bnc import BNCShape, ascii_diagram_bnc, bnc_from_text, bnc_to_text, enumerate_bnc
from .errors import BifreeError
from .multfn import MultFn
from .ncpart import (
    ascii_diagram,
    enumerate_nc,
    enumerate_nc_prime,
    kreweras,
    partition_from_text,
    partition_to_text,
)
from .oracle import LEMMAS, check_lemma
from .series import TruncatedSeries2, render_series_2
from .transforms import (
    check_bimoment_factorization,
    check_convolution_inversion,
    check_inverse_product,
    check_S_multiplicativity,
    check_T_multiplicativity,
    partial_S,
    partial_T,
    rescale_pair,
    trim_pair,
)

_IDENTITY_TRIALS = 5


# -- nc ----------------------------------------------------------------------

def cmd_nc(args):
    if args.nc_command == "enumerate":
        for pi in enumerate_nc(args.n):
            print(partition_to_text(pi))
    elif args.nc_command == "enumerate-prime":
        for pi in enumerate_nc_prime(args.n):
            print(partition_to_text(pi))
    elif args.nc_command == "kreweras":
        print(partition_to_text(kreweras(partition_from_text(args.partition))))
    elif args.nc_command == "diagram":
        print(ascii_diagram(partition_from_text(args.partition)))
    elif args.nc_command == "bnc-enumerate":
        for pi in enumerate_bnc(BNCShape.chi(args.nleft, args.nright)):
            print(bnc_to_text(pi))
    else:
        print(ascii_diagram_bnc(bnc_from_text(args.partition)))
    return 0


# -- transform ---------------------------------------------------------------

def _read_pair(path):
    text = sys.stdin.read() if path == "-" else open(path).read()
    return PairDistribution.from_json(text)


def _series_entries(f):
    keys = sorted(f.coeffs, key=lambda k: (k[0] + k[1], -k[0]))
    return [{"dz": k[0], "dw": k[1], "value": str(f.coeffs[k])} for k in keys]


def cmd_transform(args):
    d = _read_pair(args.table)
    if args.order is not None:
        d = trim_pair(d, args.order)
    if args.which == "t":
        series = partial_T(d, args.method)
    elif args.which == "s":
        series = partial_S(d, args.method)
    else:
        series = TruncatedSeries2(dict(d.items()), d.trunc)
    if args.format == "json":
        print(json.dumps({"transform": args.which, "order": series.trunc_order,
                          "series": _series_entries(series)}, sort_keys=True))
    else:
        print(render_series_2(series))
    return 0


# -- verify ------------------------------------------------------------------

def _print_report(report, fmt):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
        return
    name = report.get("theorem") or report.get("lemma") or report["identity"]
    extra = f" [{report['right_order']}]" if "right_order" in report else ""
    line = f"{name}{extra} order {report['order']}: "
    if report["status"] == "ok":
        print(line + "PASS")
    else:
        w = report["witness"]
        if "degree" in w:
            where = f"degree {w['degree']}"
        else:
            where = f"({w['n']},{w['m']})"
        print(line + f"FAIL first difference at {where}: "
                     f"lhs={w['lhs']} rhs={w['rhs']}")


def _normalized_family(rng, trunc, left_too):
    fam = random_family(rng, trunc)
    pairs = []
    for i in (1, 2):
        d = fam.pair(i)
        lam = 1 / d.kappa(1, 0) if left_too else 1
        pairs.append(rescale_pair(d, lam, 1 / d.kappa(0, 1)))
    return BiFreeFamily(pairs[0], pairs[1])


def cmd_verify_t_mult(args):
    rng = random.Random(args.seed)
    fam = _normalized_family(rng, args.order + 1, left_too=False)
    report = check_T_multiplicativity(fam, args.order)
    report["seed"] = args.seed
    del report["grid"]
    _print_report(report, args.format)
    return 0 if report["status"] == "ok" else 1


def cmd_verify_s_mult(args):
    rng = random.Random(args.seed)
    rect = args.order // 2
    fam = _normalized_family(rng, max(args.order, 2 * rect), left_too=True)
    report = check_S_multiplicativity(fam, args.order,
                                      right_order=args.right_order)
    report["seed"] = args.seed
    for chk in report["checks"]:
        del chk["grid"]
    _print_report(report, args.format)
    return 0 if report["status"] == "ok" else 1


def cmd_verify_lemmas(args):
    rng = random.Random(args.seed)
    fam = random_family(rng, args.order, means=(1, 1))
    reports = [check_lemma(lemma, fam) for lemma in sorted(LEMMAS)]
    ok = True
    for report in reports:
        del report["grid"]
        report["seed"] = args.seed
        report["order"] = args.order
        _print_report(report, args.format)
        ok = ok and report["status"] == "ok"
    return 0 if ok else 1


def _random_normalized_multfn(rng, trunc):
    values = [Fraction(1)]
    values += [Fraction(rng.randint(-6, 6), rng.randint(1, 6))
               for _ in range(trunc - 1)]
    return MultFn(values)


def _identity_trials(which, order, seed):
    rng = random.Random(seed)
    reports = []
    for _ in range(_IDENTITY_TRIALS):
        if which == "bimoment-factorization":
            reports.append(check_bimoment_factorization(
                random_pair_distribution(rng, order)))
        else:
            f = _random_normalized_multfn(rng, order)
            g = _random_normalized_multfn(rng, order)
            if which == "convolution-inversion":
                reports.append(check_convolution_inversion(f, g))
            else:
                reports.append(check_inverse_product(f, g))
    bad = [r for r in reports if r["status"] != "ok"]
    merged = bad[0] if bad else reports[0]
    merged["trials"] = len(reports)
    return merged


def cmd_verify_identities(args):
    reports = [_identity_trials(which, args.order, args.seed)
               for which in ("convolution-inversion", "inverse-product",
                             "bimoment-factorization")]
    ok = True
    for report in reports:
        report["seed"] = args.seed
        _print_report(report, args.format)
        ok = ok and report["status"] == "ok"
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------

def _add_format(p):
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bifree",
        description="bi-free partition combinatorics and partial transforms")
    sub = parser.add_subparsers(dest="command", required=True)

    nc = sub.add_parser("nc", help="partition enumeration and diagrams")
    ncsub = nc.add_subparsers(dest="nc_command", required=True)
    p = ncsub.add_parser("enumerate", help="list NC(n) in canonical order")
    p.add_argument("n", type=int)
    p = ncsub.add_parser("enumerate-prime",
                         help="list partitions with {1} a singleton")
    p.add_argument("n", type=int)
    p = ncsub.add_parser("kreweras", help="Kreweras complement of a partition")
    p.add_argument("partition")
    p = ncsub.add_parser("diagram", help="ASCII diagram of an NC partition")
    p.add_argument("partition")
    p = ncsub.add_parser("bnc-enumerate",
                         help="list BNC(chi_{n,m}) partitions")
    p.add_argument("nleft", type=int)
    p.add_argument("nright", type=int)
    p = ncsub.add_parser("bnc-diagram",
                         help="two-column diagram of a BNC partition")
    p.add_argument("partition")
    nc.set_defaults(func=cmd_nc)

    tr = sub.add_parser("transform",
                        help="partial transform of a cumulant table")
    tr.add_argument("which", choices=("t", "s", "r"))
    tr.add_argument("table", help="JSON table path, or - for stdin")
    tr.add_argument("--method", choices=("cumulant", "analytic"),
                    default="cumulant")
    tr.add_argument("--order", type=int, default=None,
                    help="truncate the table before transforming")
    _add_format(tr)
    tr.set_defaults(func=cmd_transform)

    ver = sub.add_parser("verify", help="seeded verification suites")
    vsub = ver.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("t-mult", help="T of a sum-product pair factors")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--seed", type=int, default=1)
    _add_format(p)
    p.set_defaults(func=cmd_verify_t_mult)

    p = vsub.add_parser("s-mult", help="S of a product-product pair factors")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--right-order", choices=("b1b2", "b2b1"),
                   default="b1b2", dest="right_order")
    _add_format(p)
    p.set_defaults(func=cmd_verify_s_mult)

    p = vsub.add_parser("lemmas", help="the nine class-sum identities")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    _add_format(p)
    p.set_defaults(func=cmd_verify_lemmas)

    p = vsub.add_parser("identities", help="foundational series identities")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    _add_format(p)
    p.set_defaults(func=cmd_verify_identities)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BifreeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
