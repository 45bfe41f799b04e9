"""Command-line interface.

Subcommands: fingerprint, similar, units, sylvester, corpus.  Verdicts are
data, not exit codes: any completed decision exits 0 and nonzero is
reserved for errors (bad files, shape mismatches, exceeded budgets).  All
randomness flows from --seed, so output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import load_corpus, run_fixture
from .errors import TracesimError
from .fields import value_str
from .intertwiner import gl_similar
from .matrices import Matrix
from .matrix_units import check_epsilon, commutant
from .orthogonal import orthogonal_witness
from .sylvester import sylvester_solve, sylvester_unique
from .tupleio import format_entry, load_rect_matrix, load_tuple, matrix_entry_row_strings
from .words import DEFAULT_BUDGET, fingerprint


def _print_matrix_block(m: Matrix, out):
    for line in matrix_entry_row_strings(m):
        print(line, file=out)


def _entry_lists(m: Matrix):
    return [format_entry(m.field, e) for e in m.entries]


def cmd_fingerprint(args, out) -> int:
    x = load_tuple(args.file)
    degree = args.degree if args.degree is not None else x.n * x.n
    fp = fingerprint(x, degree, include_star=not args.pure, budget=args.budget)
    if args.json:
        doc = {"d": fp.d, "degree": fp.degree_bound, "include_star": fp.include_star,
               "entries": [[str(w), format_entry(x.field, v)] for w, v in fp.items()]}
        print(json.dumps(doc, indent=2), file=out)
    else:
        for w, v in fp.items():
            print("%s = %s" % (w, value_str(v)), file=out)
    return 0


_VERDICT_TEXT = {
    "similar": "similar",
    "not_similar": "not-similar",
    "not_similar_probable": "not-similar-probable",
    "equivalent": "similar",
    "not_equivalent": "not-similar",
    "not_equivalent_probable": "not-similar-probable",
    "exact_witness_unavailable": "similar",
}


def cmd_similar(args, out) -> int:
    x = load_tuple(args.x)
    y = load_tuple(args.y)
    if args.orthogonal:
        res = orthogonal_witness(x, y, seed=args.seed)
        witness = res.witness.o if res.witness is not None else None
        note = "exact-witness-unavailable" if res.verdict == "exact_witness_unavailable" else None
    else:
        res = gl_similar(x, y, seed=args.seed)
        witness = res.witness
        note = None
    text = _VERDICT_TEXT[res.verdict]
    if args.json:
        doc = {"verdict": text, "detail": res.detail}
        if note:
            doc["note"] = note
        if args.witness and witness is not None:
            doc["witness"] = _entry_lists(witness)
        print(json.dumps(doc, indent=2), file=out)
        return 0
    print(text, file=out)
    if note:
        print("note: %s" % note, file=out)
    if args.witness and witness is not None:
        print("witness:", file=out)
        _print_matrix_block(witness, out)
    return 0


def cmd_units(args, out) -> int:
    x = load_tuple(args.file)
    root = int(round(x.d ** 0.5))
    if root * root != x.d:
        raise TracesimError("units file must hold N^2 matrices, got d=%d" % x.d)
    family = [[x[i * root + j] for j in range(root)] for i in range(root)]
    ok, violation = check_epsilon(family)
    if args.json:
        doc = {"epsilon": "ok" if ok else str(violation)}
        if ok and args.center:
            basis = commutant([m for row in family for m in row])
            doc["center_basis"] = [_entry_lists(m) for m in basis]
        print(json.dumps(doc, indent=2), file=out)
        return 0
    if ok:
        print("epsilon: ok", file=out)
    else:
        print("epsilon: %s" % violation, file=out)
        return 0
    if args.center:
        basis = commutant([m for row in family for m in row])
        print("center basis (dim %d):" % len(basis), file=out)
        for m in basis:
            _print_matrix_block(m, out)
    return 0


def cmd_sylvester(args, out) -> int:
    a = load_tuple(args.a)
    b = load_tuple(args.b)
    if a.d != 1 or b.d != 1:
        raise TracesimError("sylvester expects d=1 tuple files for A and B")
    am, bm = a[0], b[0]
    doc = {}
    if args.unique or args.c is None:
        unique = sylvester_unique(am, bm)
        doc["unique"] = unique
        if not args.json:
            print("unique: %s" % ("yes" if unique else "no"), file=out)
    if args.c is not None:
        c = load_rect_matrix(args.c)
        sol = sylvester_solve(am, bm, c)
        if args.json:
            doc["solution"] = None if sol is None else _entry_lists(sol)
        elif sol is None:
            print("no solution", file=out)
        else:
            print("solution:", file=out)
            _print_matrix_block(sol, out)
    if args.json:
        print(json.dumps(doc, indent=2), file=out)
    return 0


def cmd_corpus(args, out) -> int:
    if args.action == "list":
        for fx in load_corpus():
            print("%s: %s" % (fx.name, fx.citation), file=out)
        return 0
    fixtures = load_corpus()
    if args.names:
        known = {fx.name for fx in fixtures}
        missing = [n for n in args.names if n not in known]
        if missing:
            raise TracesimError("unknown fixture(s): %s" % ", ".join(missing))
        fixtures = [fx for fx in fixtures if fx.name in args.names]
    results = [run_fixture(fx, seed=args.seed) for fx in fixtures]
    failed = 0
    for res in results:
        if res.ok:
            print("fixture %s: ok" % res.name, file=out)
        else:
            failed += 1
            print("fixture %s: MISMATCH" % res.name, file=out)
            for c in res.checks:
                mark = "ok" if c.ok else "MISMATCH"
                print("  %s: expected %s, got %s [%s]" % (c.label, c.expected, c.got, mark),
                      file=out)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracesim",
        description="Similarity and orthogonal similarity of matrix tuples, "
                    "decided through intertwiner spaces, with trace-word invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fingerprint", help="trace of every canonical word of a tuple")
    p.add_argument("file")
    p.add_argument("-D", "--degree", type=int, default=None,
                   help="degree bound (default n^2)")
    p.add_argument("--pure", action="store_true", help="unstarred alphabet only")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("similar", help="decide simultaneous (orthogonal) similarity")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--orthogonal", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("units", help="check matrix-unit relations of an N^2-tuple file")
    p.add_argument("file")
    p.add_argument("--center", action="store_true",
                   help="also print a commutant basis of the units")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sylvester", help="solve A X - X B = C / test unique solvability")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c", nargs="?", default=None)
    p.add_argument("--unique", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("corpus", help="bundled counterexample corpus")
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("names", nargs="*")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "fingerprint":
            return cmd_fingerprint(args, out)
        if args.command == "similar":
            return cmd_similar(args, out)
        if args.command == "units":
            return cmd_units(args, out)
        if args.command == "sylvester":
            return cmd_sylvester(args, out)
        return cmd_corpus(args, out)
    except TracesimError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
