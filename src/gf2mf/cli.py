"""Command-line driver.

Subcommands: factor, eval, conv, verify, search, mersenne.  Polynomials
are accepted in term form ("x^3+x+1") or hex form ("0xb").  Exit codes:
0 success / all checks passed, 1 at least one identity check failed,
2 usage or resource error, 141 (128 + SIGPIPE) stdout closed by its
reader, as in `gf2mf verify ... | head -1`.

`search --stats` prints the run's counts as one JSON object on stderr;
stdout stays the same with and without it.

Each subcommand imports only the modules it runs: factor and mersenne
need the ring, factorization and divisor modules that every call loads;
eval and conv add multfun, search adds perfect and verify identities.
"""

import argparse
import os
import sys

from .factorize import MersenneForm, factor, is_irreducible
from .divisors import ResourceLimitError
from .gf2poly import Poly, PolyParseError

__all__ = ["main"]

_MAX_VERIFY_PRIME_DEG = 8
_MAX_VERIFY_EXP = 16
_MAX_MERSENNE_DEG = 32


def _cmd_factor(args: argparse.Namespace) -> int:
    print(factor(Poly(args.poly)))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .multfun import parse_expression

    f = parse_expression(args.expr)
    print(f(Poly(args.poly)))
    return 0


def _cmd_conv(args: argparse.Namespace) -> int:
    from .multfun import convolve, convolve_bruteforce, parse_expression

    f = parse_expression(args.expr1)
    g = parse_expression(args.expr2)
    a = Poly(args.poly)
    value = convolve_bruteforce(f, g, a) if args.oracle else convolve(f, g)(a)
    print(value)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .identities import check_all, corollary_suite

    if not 1 <= args.max_prime_deg <= _MAX_VERIFY_PRIME_DEG:
        raise ValueError(
            f"--max-prime-deg must be 1..{_MAX_VERIFY_PRIME_DEG}"
        )
    if not 0 <= args.max_exp <= _MAX_VERIFY_EXP:
        raise ValueError(f"--max-exp must be 0..{_MAX_VERIFY_EXP}")
    spec_ids = [args.lemma] if args.lemma else None
    summary = check_all(args.max_prime_deg, args.max_exp, spec_ids=spec_ids)
    print(summary.render(include_passes=bool(args.lemma)))
    failed = not summary.all_passed()
    if args.corollaries:
        suite = corollary_suite()
        print(suite.render())
        failed = failed or not suite.all_passed()
    return 1 if failed else 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .perfect import odd_square_scan, search_fixed_points

    if args.kind == "odd":
        report = odd_square_scan(args.max_deg)
        results = report.hits
        stats = {"candidates": report.candidates,
                 "filter_rejected": report.filter_rejected,
                 "full_checked": report.full_checked}
    else:
        results = search_fixed_points(args.max_deg,
                                      unitary=args.kind == "unitary")
        stats = {}
    for result in results:
        print(result.line())
    if args.stats:
        import json

        stats["hits"] = len(results)
        print(json.dumps(stats), file=sys.stderr)
    return 0


def _cmd_mersenne(args: argparse.Namespace) -> int:
    n = args.max_deg
    if not 1 <= n <= _MAX_MERSENNE_DEG:
        raise ValueError(f"--max-deg must be 1..{_MAX_MERSENNE_DEG}")
    found = []
    for a in range(1, n):
        for b in range(1, n - a + 1):
            p = MersenneForm(a, b).polynomial()
            if is_irreducible(p):
                found.append((p.degree, p.bits, a, b))
    for _, bits, a, b in sorted(found):
        print(f"{Poly(bits)} a={a} b={b}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gf2mf",
        description="Exact multiplicative-function algebra over F2[x]",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a polynomial")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("eval", help="evaluate a function expression")
    p.add_argument("expr")
    p.add_argument("poly")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("conv", help="convolve two expressions at a point")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.add_argument("poly")
    p.add_argument("--oracle", action="store_true",
                   help="force the brute-force divisor sum")
    p.set_defaults(func=_cmd_conv)

    p = sub.add_parser("verify", help="check the identity registry")
    p.add_argument("--max-prime-deg", type=int, default=3)
    p.add_argument("--max-exp", type=int, default=6)
    p.add_argument("--lemma", help="check one lemma id, printing every point")
    p.add_argument("--corollaries", action="store_true",
                   help="also run the divisor-lattice corollary suite")
    # Verification runs serially; the flag stays, hidden and ignored, so
    # existing `verify --jobs N` calls keep working.
    p.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search for divisor-sum fixed points")
    p.add_argument("kind", choices=("perfect", "unitary", "odd"))
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--stats", action="store_true",
                   help="print the run's counts as one JSON object on stderr")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("mersenne",
                       help="list irreducibles of the form 1 + x^a (x+1)^b")
    p.add_argument("--max-deg", type=int, required=True)
    p.set_defaults(func=_cmd_mersenne)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (PolyParseError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
