"""The four named workloads: what each one runs and how its outputs are checked.

CLI workloads are lists of ``ibltlab`` argument vectors.  Each invocation's
stdout is checked against a recorded SHA-256 digest where one exists (the
seed-free ``bound-curve`` and ``oracle-exact`` invocations, and ``mc-floor``
at seed 0), and always against invariants that hold for every seed.
"""

import csv
import hashlib
import io
import math
from fractions import Fraction

WORKLOADS = ("mc-floor", "bound-curve", "oracle-exact", "table-churn")

# Trials per simulate invocation.  About 20k trials make the paper's
# error-floor comparison; 12k keep one pass of the workload near the length
# of the other CLI workloads (~10 s on a 2-core x86 VM) so a run fits two.
MC_TRIALS = 12_000

# Distinct key/value pairs inserted by table-churn.
CHURN_KEYS = 100_000

SIMULATE_HEADER = [
    "m", "ell", "n", "k", "b", "scheme", "trials", "failures",
    "p_hat", "ci_low", "ci_high", "bound_clamped", "p2", "seed",
]
BOUND_HEADER = ["ell", "n", "k", "bound_raw", "bound_clamped", "p2"]
ORACLE_HEADER = ["ell", "n", "k", "exact_num", "exact_den", "exact_float", "bound_clamped"]

# sha256 of the stdout of each invocation, recorded from the package at the
# commit that introduced this benchmark.  An output byte that changes is a
# failure, not a speed-up.
EXPECTED_SHA256 = {
    "bound --n 210 --k 3 --breakdown --m 420":
        "29e35e0733b791995f342400e5c93df2d63f9c337067a4ff95d7f56ccf4ab22e",
    "bound --n 210 --k 3 --breakdown --m 840":
        "9e5f1a8a543b4bb0b2554930e7ecfe81a1c19c0eebbada4fe2703a7b8fde9e0f",
    "bound --ell 280 --n 320 --k 3":
        "ea36437f8c98a887ce8888051a0ecae3e475e61c712d180d466ea6afdfdf19b1",
    "oracle 3 4 3":
        "d3b425ece4b7ca5f8c6df42d28f1b61145ffce8354c57bd1c76f2c129e392ad4",
    "oracle 4 3 3":
        "b41fec45de0157205382ceeb72d0804cee4db3b854c738d437dce120b45c6b39",
    "simulate --n 210 --k 3 --b 32 --m 768 --trials 12000 --seed 0":
        "c9aa424c4530f8350970e88c8da332fb4254873d61ab9b8ad133f089f842b4d2",
    "simulate --n 210 --k 3 --b 24 --m 768 --scheme ss-avoiding --trials 12000 --seed 0":
        "db1557190a340da946102a8e11900ec254a8a8fa2df5194ce9a582f84a6692bc",
}


def cli_invocations(workload: str, seed: int) -> list[tuple[str, ...]]:
    """Argument vectors (after ``python -m ibltlab``) of one pass of a CLI workload."""
    if workload == "mc-floor":
        common = ("--n", "210", "--k", "3")
        tail = ("--trials", str(MC_TRIALS), "--seed", str(seed))
        return [
            ("simulate", *common, "--b", "32", "--m", "768", *tail),
            ("simulate", *common, "--b", "24", "--m", "768", "--scheme", "ss-avoiding", *tail),
        ]
    if workload == "bound-curve":
        return [
            ("bound", "--n", "210", "--k", "3", "--breakdown", "--m", "420"),
            ("bound", "--n", "210", "--k", "3", "--breakdown", "--m", "840"),
            ("bound", "--ell", "280", "--n", "320", "--k", "3"),
        ]
    if workload == "oracle-exact":
        return [("oracle", "3", "4", "3"), ("oracle", "4", "3", "3")]
    if workload == "table-churn":
        return []
    raise ValueError(f"unknown workload {workload!r}")


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def simulate_trials(argv) -> int:
    return int(_flag(argv, "--trials", "100000"))


def oracle_states(argv) -> int:
    """State matrices an oracle invocation covers: ell**(n*k)."""
    ell, n, k = (int(x) for x in argv[1:4])
    return ell ** (n * k)


def _rows(stdout: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(stdout.decode("ascii"))))


def _check_simulate(argv, rows) -> list[str]:
    if rows[0] != SIMULATE_HEADER:
        return [f"header {rows[0]}"]
    if len(rows) != 2 or len(rows[1]) != len(SIMULATE_HEADER):
        return [f"expected one row of {len(SIMULATE_HEADER)} columns"]
    row = dict(zip(SIMULATE_HEADER, rows[1]))
    problems = []
    m, k = int(_flag(argv, "--m")), int(_flag(argv, "--k"))
    expected = {
        "m": m,
        "ell": m // k,
        "n": int(_flag(argv, "--n")),
        "k": k,
        "b": int(_flag(argv, "--b", "32")),
        "scheme": _flag(argv, "--scheme", "partitioned-uniform"),
        "trials": simulate_trials(argv),
        "seed": int(_flag(argv, "--seed", "0")),
    }
    for name, want in expected.items():
        if row[name] != str(want):
            problems.append(f"{name} = {row[name]}, expected {want}")
    trials, failures = int(row["trials"]), int(row["failures"])
    p_hat, ci_low, ci_high = (float(row[c]) for c in ("p_hat", "ci_low", "ci_high"))
    if not 0 <= failures <= trials:
        problems.append(f"failures = {failures} outside [0, {trials}]")
    if p_hat != failures / trials:
        problems.append(f"p_hat = {p_hat} != failures/trials = {failures / trials}")
    if not 0.0 <= ci_low <= p_hat <= ci_high <= 1.0:
        problems.append(f"interval [{ci_low}, {ci_high}] does not hold p_hat = {p_hat}")
    if not float(row["p2"]) <= float(row["bound_clamped"]) <= 1.0:
        problems.append("p2 <= bound_clamped <= 1 does not hold")
    return problems


def _check_bound(argv, rows) -> list[str]:
    breakdown = "--breakdown" in argv
    header = BOUND_HEADER + (["i", "term"] if breakdown else [])
    if rows[0] != header:
        return [f"header {rows[0]}"]
    n = int(_flag(argv, "--n"))
    body = rows[1:]
    if len(body) != (n - 1 if breakdown else 1) or any(len(r) != len(header) for r in body):
        return ["wrong number of rows or columns"]
    problems = []
    bound_raw, bound_clamped = float(body[0][3]), float(body[0][4])
    if bound_clamped != min(bound_raw, 1.0):
        problems.append("bound_clamped != min(bound_raw, 1)")
    if breakdown:
        if [int(r[6]) for r in body] != list(range(2, n + 1)):
            problems.append("subset sizes are not 2..n")
        # The i=2 term is the floor asymptote, bit for bit.
        if body[0][7] != body[0][5] or float(body[0][7]) != float(body[0][5]):
            problems.append(f"i=2 term {body[0][7]} != p2 {body[0][5]}")
    return problems


def _check_oracle(argv, rows) -> list[str]:
    if rows[0] != ORACLE_HEADER:
        return [f"header {rows[0]}"]
    if len(rows) != 2 or len(rows[1]) != len(ORACLE_HEADER):
        return [f"expected one row of {len(ORACLE_HEADER)} columns"]
    row = dict(zip(ORACLE_HEADER, rows[1]))
    problems = []
    num, den = int(row["exact_num"]), int(row["exact_den"])
    exact = Fraction(num, den)
    if math.gcd(num, den) != 1:
        problems.append("exact fraction is not in lowest terms")
    if oracle_states(argv) % den:
        problems.append("denominator does not divide ell**(n*k)")
    if float(row["exact_float"]) != float(exact):
        problems.append("exact_float != exact_num/exact_den")
    if not float(row["exact_float"]) <= float(row["bound_clamped"]):
        problems.append(f"exact {row['exact_float']} > bound {row['bound_clamped']}")
    return problems


_CHECKS = {"simulate": _check_simulate, "bound": _check_bound, "oracle": _check_oracle}


def check_cli(argv, returncode: int, stdout: bytes) -> list[str]:
    """Problems with one CLI invocation's result; empty when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems = []
    expected = EXPECTED_SHA256.get(" ".join(argv))
    if expected is not None and hashlib.sha256(stdout).hexdigest() != expected:
        problems.append("stdout differs from the recorded digest")
    try:
        rows = _rows(stdout)
        if not rows:
            return problems + ["empty stdout"]
        problems += _CHECKS[argv[0]](argv, rows)
    except (ValueError, IndexError, KeyError, OverflowError) as exc:
        problems.append(f"unparseable output: {exc!r}")
    return problems

