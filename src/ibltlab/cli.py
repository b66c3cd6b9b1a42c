"""Command-line front end: every analysis as a reproducible CSV emitter.

stdout carries CSV (header always present), stderr carries diagnostics.
Exit codes: 0 success, 1 usage error, 2 resource guard exceeded,
3 internal error.  All randomness flows from --seed, so repeated
invocations with identical flags produce byte-identical CSV, regardless
of worker count.
"""

import argparse
import csv
import sys

from ibltlab.bounds import size2_asymptote, union_bound
from ibltlab.census import COST_GUARD_S, StoppingCensus, check_cost, rows_cost_s, stopping_row
from ibltlab.errors import ResourceGuardError


# The values of hashing.HashKind and hashing.KeyModel, written out so that
# building the parser loads neither hashing nor _bits; a test keeps them equal.
SCHEMES = ("partitioned-uniform", "ss-avoiding")
KEY_MODELS = ("iid", "distinct")

# Seconds to store and write one ztable cell: `ztable 200000 1` takes 1.9 s
# on a 2-core x86 VM.
_ZTABLE_CELL_S = 1e-5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ibltlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ztable", help="exact stopping-matrix counts on a rectangle")
    p.add_argument("lmax", type=int, help="largest subtable size")
    p.add_argument("nmax", type=int, help="largest column count")
    p.set_defaults(run=cmd_ztable)

    p = sub.add_parser(
        "bound",
        help="union bound on the listing failure probability",
        description="Union bound on the listing failure probability.  Inputs "
        f"whose census and bound are estimated to take over {COST_GUARD_S:g} s "
        "(2-core x86 VM, CPython 3.11) are refused with exit code 2.",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ell", type=int, help="cells per subtable")
    group.add_argument("--m", type=int, help="total cells (k subtables of m/k)")
    p.add_argument("--n", type=int, required=True, help="number of entries")
    p.add_argument("--k", type=int, required=True, help="number of hash functions")
    p.add_argument("--breakdown", action="store_true", help="emit one row per subset size")
    p.set_defaults(run=cmd_bound)

    p = sub.add_parser("simulate", help="Monte Carlo listing-failure estimation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, help="total cells")
    group.add_argument("--sweep", help="m grid as start:stop:step (stop inclusive)")
    p.add_argument("--b", type=int, default=32, help="key/value width in bits")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--scheme",
        choices=SCHEMES,
        default=SCHEMES[0],
    )
    p.add_argument(
        "--key-model",
        choices=KEY_MODELS,
        default=None,
        help="defaults to iid, or distinct under the ss-avoiding scheme",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="trial processes, at least 1; capped at the CPU and kernel batch counts",
    )
    p.add_argument("--verbose", action="store_true", help="progress on stderr")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser("oracle", help="exact failure probability by enumeration")
    p.add_argument("ell", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(run=cmd_oracle)

    return parser


def cmd_ztable(args):
    if args.lmax < 1 or args.nmax < 1:
        raise ValueError("lmax and nmax must be positive")
    check_cost(
        f"ztable {args.lmax} {args.nmax}",
        lambda: rows_cost_s(1, args.lmax, args.nmax)
        + _ZTABLE_CELL_S * args.lmax * args.nmax,
    )
    # csv writes each count with str(), which CPython refuses past
    # sys.get_int_max_str_digits() digits (0 means no limit).  No count
    # exceeds lmax**nmax, so refusing here keeps a partial table off stdout.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and args.lmax**args.nmax >= 10**digits:
        raise ResourceGuardError(
            f"ztable {args.lmax} {args.nmax}: counts may exceed the "
            f"{digits}-digit limit on printing an integer"
        )
    # Lazy, so each row is built as it is written and dropped after it.
    rows = (
        [ell, n, z]
        for ell in range(1, args.lmax + 1)
        for n, z in enumerate(stopping_row(ell, args.nmax)[1:], start=1)
    )
    return ["ell", "n", "z"], rows


def cmd_bound(args):
    if args.ell is not None:
        ell = args.ell
    else:
        if args.k < 1:  # before m % k; union_bound checks n and k itself
            raise ValueError("k must be positive")
        if args.m % args.k != 0:
            raise ValueError(f"m = {args.m} must be divisible by k = {args.k}")
        ell = args.m // args.k
    breakdown = union_bound(StoppingCensus(), ell, args.n, args.k)
    p2 = size2_asymptote(ell, args.n, args.k)
    header = ["ell", "n", "k", "bound_raw", "bound_clamped", "p2"]
    summary = [
        ell,
        args.n,
        args.k,
        breakdown.total,
        breakdown.total_clamped,
        p2,
    ]
    if args.breakdown:
        terms = breakdown.terms or [("", "")]  # n = 1: one row, i and term empty
        return header + ["i", "term"], [summary + [i, term] for i, term in terms]
    return header, [summary]


def _parse_sweep(spec: str) -> range:
    try:
        start, stop, step = (int(part) for part in spec.split(":"))
    except ValueError:
        raise ValueError(f"--sweep expects start:stop:step, got {spec!r}") from None
    if step < 1 or stop < start:
        raise ValueError(f"bad sweep grid {spec!r}")
    return range(start, stop + 1, step)


def cmd_simulate(args):
    from ibltlab import simulate  # the trial machinery, loaded by this command only

    m_values = [args.m] if args.m is not None else _parse_sweep(args.sweep)
    base = simulate.TrialConfig(
        n=args.n,
        m=m_values[0],
        k=args.k,
        b=args.b,
        trials=args.trials,
        seed=args.seed,
        scheme=simulate.HashKind(args.scheme),
        key_model=simulate.KeyModel(args.key_model) if args.key_model else None,
    )
    rows = []
    for report in simulate.sweep(base, m_values, workers=args.workers):
        cfg = report.config
        rows.append(
            [
                cfg.m,
                cfg.ell,
                cfg.n,
                cfg.k,
                cfg.b,
                cfg.scheme.value,
                cfg.trials,
                report.failures,
                report.p_hat,
                report.ci_low,
                report.ci_high,
                report.bound,
                report.p2,
                args.seed,
            ]
        )
        if args.verbose:
            print(
                f"m={cfg.m}: {report.failures}/{cfg.trials} failures",
                file=sys.stderr,
            )
    header = [
        "m", "ell", "n", "k", "b", "scheme", "trials", "failures",
        "p_hat", "ci_low", "ci_high", "bound_clamped", "p2", "seed",
    ]
    return header, rows


# A module-level name that forwards to the oracle, so `ztable` and `bound`
# never load `ibltlab.oracle`, while callers that wrap or replace the
# enumeration (benchmark tracers, tests) still patch it here, in `cli`.
def exact_failure_probability(ell: int, n: int, k: int):
    from ibltlab import oracle

    return oracle.exact_failure_probability(ell, n, k)


def cmd_oracle(args):
    from ibltlab.oracle import check_states

    # The state guard, then the union bound with its own cost guard, run
    # before the enumeration, so a refusal costs no states.
    check_states(args.ell, args.n, args.k)
    bound = union_bound(StoppingCensus(), args.ell, args.n, args.k).total_clamped
    exact = exact_failure_probability(args.ell, args.n, args.k)
    header = ["ell", "n", "k", "exact_num", "exact_den", "exact_float", "bound_clamped"]
    row = [
        args.ell,
        args.n,
        args.k,
        exact.numerator,
        exact.denominator,
        float(exact),
        bound,
    ]
    return header, [row]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Each command checks its inputs and guards, and computes its rows
        # (ztable's lazily, once nothing in them can refuse), before any
        # output, so a bad input or a refusal leaves stdout empty.
        header, rows = args.run(args)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return 0
    except ResourceGuardError as exc:
        print(f"ibltlab: resource guard: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"ibltlab: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception:
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
