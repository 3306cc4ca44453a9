"""Command-line surface: socle filtrations, lengths, LR coefficients,
coproducts, finite-rank dimensions, and the verification suites.

Exit codes: 0 success, 1 verification failure (or a reader that closed the
pipe before the output ended), 2 usage error, an input too deep for the
recursion limit, an integer answer over MAX_DIGITS digits or a `length`
over its work bound MAX_LENGTH_WORK, refused before it is computed, 130
interrupted (Ctrl-C, with one line on stderr and no traceback). JSON goes to
stdout (`coproduct` through canonical_json, `socle` written by hand in the same
form), diagnostics to stderr. The SOCLE_BUDGET environment variable
overrides the default brute-force size budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from itertools import chain
from math import isqrt

from . import verify
from .brute import DEFAULT_BUDGET, BudgetExceededError
from .partitions import Partition, dim_mixed, format_partition, parse_partition
from .socle import SocleReport, simple_length, socle_layers, tensor_length
from .symfunc import coproduct, lr_coefficient

USAGE_ERROR = 2
INTERRUPTED = 130
MAX_DIGITS = 100_000
MAX_LENGTH_WORK = 4 * 10**10  # bit steps of `mackey length`: about 1 s at most on one Xeon core


def canonical_json(data) -> str:
    """The byte-stable JSON form: compact separators, insertion order
    preserved. `coproduct` prints through it; render_socle_json writes it by hand."""
    return json.dumps(data, separators=(",", ":"))


def _partition_arg(parser: argparse.ArgumentParser, flag: str, help_text: str) -> None:
    # --lambda cannot land on the namespace under its own (keyword) name
    dest = "lam" if flag == "--lambda" else flag.lstrip("-")
    parser.add_argument(flag, dest=dest, required=True, metavar="PARTS",
                        help=help_text)


def _parse_partition(text: str, what: str) -> Partition:
    try:
        return parse_partition(text)
    except ValueError as exc:
        raise ValueError(f"invalid partition for {what}: {exc}") from None


def _default_budget() -> int:
    raw = os.environ.get("SOCLE_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SOCLE_BUDGET must be an integer, got {raw!r}") from None


def _check_digits(bits: int) -> None:
    """Refuse an answer of about `bits` bits if that is over MAX_DIGITS digits."""
    digits = bits * 1233 >> 12  # bits * log10(2), rounded down
    if digits > MAX_DIGITS:
        raise ValueError(f"the answer has about {digits} digits, "
                         f"more than the {MAX_DIGITS} this command prints")


def _print_int(value: int) -> None:
    """Print an integer answer in full, or refuse one with more than
    MAX_DIGITS digits: its conversion time grows quadratically, to seconds."""
    _check_digits(value.bit_length())
    # Decimal formats past the interpreter's 4300-digit limit on str(int)
    print(Decimal(value))


def _shape_names(report: SocleReport, name) -> dict[Partition, str]:
    """Each shape of the report (lambda, mu, every alpha and beta) mapped to
    name(shape): alphas and betas repeat across constituents, so each is named once."""
    shapes = {shape for layer in report.layers for c in layer for shape in (c.alpha, c.beta)}
    return {shape: name(shape) for shape in shapes | {report.lam, report.mu}}


def render_socle_text(report: SocleReport) -> str:
    names = _shape_names(report, format_partition)
    mu = names[report.mu]
    lines = [
        f"socle filtration of W(lambda={names[report.lam]}, mu={mu}): "
        f"{len(report.layers)} layers, length {report.length()}"
    ]
    for k, layer in enumerate(report.layers):
        rendered = "; ".join([
            f"(alpha={names[c.alpha]}, beta={names[c.beta]}, mu={mu}) x{c.multiplicity}"
            for c in layer])
        lines.append(f"layer {k}: {rendered}")
    return "\n".join(lines)


def render_socle_json(report: SocleReport) -> str:
    """canonical_json of {"lambda", "mu", "layers": [[{"alpha", "beta", "mu",
    "mult"}, ...], ...]}, byte for byte, written straight from the report."""
    names = _shape_names(report, lambda shape: "[" + ",".join(map(str, shape)) + "]")
    mu = names[report.mu]  # every constituent carries the report's one mu
    layers = ",".join(["[" + ",".join([
        f'{{"alpha":{names[c.alpha]},"beta":{names[c.beta]},"mu":{mu},"mult":{c.multiplicity}}}'
        for c in layer]) + "]" for layer in report.layers])
    return f'{{"lambda":{names[report.lam]},"mu":{mu},"layers":[{layers}]}}'


def cmd_socle(args) -> int:
    lam = _parse_partition(args.lam, "--lambda")
    mu = _parse_partition(args.mu, "--mu")
    report = socle_layers(lam, mu)
    render = render_socle_json if args.format == "json" else render_socle_text
    print(render(report))
    return 0


def cmd_simple_length(args) -> int:
    lam = _parse_partition(args.lam, "--lambda")
    mu = _parse_partition(args.mu, "--mu")
    _print_int(simple_length(lam, mu))
    return 0


def _check_length_work(m: int, n: int) -> None:
    """Refuse a length whose sum would take more than MAX_LENGTH_WORK steps:
    min(m, n) + 1 products of B-bit numbers, each about B^1.5 steps, and
    m + n recurrence steps linear in B. With N = m + n, B = N bit_length(N) + 5
    bounds the answer's bits, since T(m, n) <= T(N, 0) <= e^3 N! < 2^5 N^N."""
    total = m + n
    bits = total * total.bit_length() + 5
    work = (min(m, n) + 1) * bits * isqrt(bits) + total * bits
    if work > MAX_LENGTH_WORK:
        raise ValueError(f"the length at m={m}, n={n} takes about {work:.1e} steps, "
                         f"more than the {MAX_LENGTH_WORK:.0e} this command allows")


def _length_bits_at_least(m: int, n: int) -> int:
    """A lower bound on the bits of tensor_length(m, n), in integers only. The
    length is at least its r = 0 term A(m) I(n). A(m) is at least its term
    j = m//2 in sum_j m! 2^(m-2j) / ((m-2j)! j!), so at least m!/ceil(m/2)!,
    and I(n) is at least the (2k-1)!! perfect matchings of 2k points,
    k = n//2. Each factor j of the two products counts bit_length(j) - 1."""
    halves, matchings = range(m - m // 2 + 1, m + 1), range(1, 2 * (n // 2), 2)
    return 1 + sum(map(int.bit_length, chain(halves, matchings))) - len(halves) - len(matchings)


def cmd_length(args) -> int:
    if min(args.m, args.n) >= 0:
        _check_digits(args.m + args.n // 2)  # the length is >= 2^(m + n//2): O(1) at any size
        _check_length_work(args.m, args.n)
        # a sharper bound, in O(m + n) steps, which the work bound keeps short
        _check_digits(_length_bits_at_least(args.m, args.n))
    _print_int(tensor_length(args.m, args.n))
    return 0


def cmd_lr(args) -> int:
    lam = _parse_partition(args.lam, "lambda")
    mu = _parse_partition(args.mu, "mu")
    nu = _parse_partition(args.nu, "nu")
    _print_int(lr_coefficient(lam, mu, nu))
    return 0


def cmd_coproduct(args) -> int:
    lam = _parse_partition(args.lam, "lambda")
    delta = coproduct(lam)
    if args.format == "json":
        print(canonical_json([{"left": list(mu), "right": list(nu), "coeff": c}
                              for (mu, nu), c in delta]))
    else:
        for (mu, nu), c in delta:
            print(f"{c} * ({format_partition(mu)}) (x) ({format_partition(nu)})")
    return 0


def cmd_dim(args) -> int:
    lam = _parse_partition(args.lam, "--lambda")
    mu = _parse_partition(args.mu, "--mu")
    _print_int(dim_mixed(lam, mu, args.rank))
    return 0


def cmd_verify(args) -> int:
    budget = _default_budget() if args.budget is None else args.budget
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    try:
        results = verify.run_suite(args.suite, budget=budget, seed=args.seed)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mackey",
        description="Socle filtrations and lengths of tensor modules over "
                    "Mackey Lie algebras, with finite-rank verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_socle = sub.add_parser("socle", help="socle filtration of W(lambda, mu)")
    _partition_arg(p_socle, "--lambda", "partition on the dual side, e.g. 2,1 or -")
    _partition_arg(p_socle, "--mu", "partition on the plain side")
    p_socle.add_argument("--format", choices=("text", "json"), default="text")
    p_socle.set_defaults(func=cmd_socle)

    p_slen = sub.add_parser("simple-length",
                            help="length of the simple module W(lambda, mu)")
    _partition_arg(p_slen, "--lambda", "partition on the dual side")
    _partition_arg(p_slen, "--mu", "partition on the plain side")
    p_slen.set_defaults(func=cmd_simple_length)

    p_len = sub.add_parser("length", help="length of (V*)^m (x) V^n")
    p_len.add_argument("--m", type=int, required=True, help="dual tensor degree")
    p_len.add_argument("--n", type=int, required=True, help="plain tensor degree")
    p_len.set_defaults(func=cmd_length)

    p_lr = sub.add_parser("lr", help="Littlewood-Richardson coefficient c^lambda_{mu nu}")
    p_lr.add_argument("lam", metavar="LAMBDA")
    p_lr.add_argument("mu", metavar="MU")
    p_lr.add_argument("nu", metavar="NU")
    p_lr.set_defaults(func=cmd_lr)

    p_cop = sub.add_parser("coproduct", help="coproduct of a Schur basis element")
    p_cop.add_argument("lam", metavar="LAMBDA")
    p_cop.add_argument("--format", choices=("text", "json"), default="text")
    p_cop.set_defaults(func=cmd_coproduct)

    p_dim = sub.add_parser("dim", help="dimension of a mixed-tensor simple of gl(rank)")
    p_dim.add_argument("--rank", type=int, required=True)
    _partition_arg(p_dim, "--lambda", "covariant partition")
    _partition_arg(p_dim, "--mu", "contravariant partition")
    p_dim.set_defaults(func=cmd_dim)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=("hopf", "branching", "brute", "all"))
    p_ver.add_argument("--budget", type=int, default=None,
                       help="size budget for brute-force modules "
                            f"(default {DEFAULT_BUDGET}, or SOCLE_BUDGET)")
    p_ver.add_argument("--seed", type=int, default=verify.DEFAULT_SEED,
                       help="seed for randomized point checks")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        print("error: input too deep: recursion limit exceeded", file=sys.stderr)
        return USAGE_ERROR
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return INTERRUPTED
    except BrokenPipeError:
        # The reader closed the pipe: stop quietly, with stdout pointed at
        # the null device so that the flush at interpreter exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
