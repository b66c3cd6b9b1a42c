"""Union bound on the listing failure probability and its error-floor asymptote.

The failure event is a union over entry subsets of "this subset is a
stopping set"; a fixed subset of size i is a stopping set with probability
(count(ell,i) / ell**i) ** k under the uniform-hash model.  The bound
sums C(n,i) such terms over i = 2..n (a single entry can never stop).

Every term is its exact value correctly rounded, by one rule (Ziv's
strategy; Ziv, ACM TOMS 17(3), 1991).  C(n,i), count(ell,i)**k and
ell**(i*k) are held as brackets, two p-bit mantissas with one exponent,
cut down for the lower end and up for the upper at every step.  If both
ends divide (int true division) to the same double, so does the exact
term; if not, the term is evaluated again at 2p bits.  No power is built
in full, and the i=2 term IS the floor asymptote, bit for bit.  Totals
above float range degrade to inf; the clamped total is then 1.
"""

import math
from typing import NamedTuple

from ibltlab.census import COST_GUARD_S, StoppingCensus, check_cost, rows_cost_s

# A term's first pass holds _PRECISION + log2(k) bits: each squaring
# doubles a bracket's relative width, so a k-th power spends log2(k) of
# them.  Each retry doubles the whole precision.
_PRECISION = 96


class BoundBreakdown(NamedTuple):
    ell: int
    n: int
    k: int
    terms: tuple[tuple[int, float], ...]  # (subset size i, term value)
    total: float
    total_clamped: float

    def term(self, i: int) -> float:
        return dict(self.terms)[i]


def _shrink(lo: int, hi: int, e: int, p: int) -> tuple[int, int, int]:
    """The bracket lo*2**e <= x <= hi*2**e cut to p bits of hi: lo down,
    hi up, one exponent."""
    s = max(0, hi.bit_length() - p)
    return lo >> s, -(-hi >> s), e + s


def _product(a, b, p):
    return _shrink(a[0] * b[0], a[1] * b[1], a[2] + b[2], p)


def _power(x: int, k: int, p: int) -> tuple[int, int, int]:
    """A p-bit bracket of x**k, k >= 1, by squaring from the top bit."""
    base = result = _shrink(x, x, 0, p)
    for bit in bin(k)[3:]:
        result = _product(result, result, p)
        if bit == "1":
            result = _product(result, base, p)
    return result


def _to_float(num: int, den: int, e: int) -> float:
    """num * 2**e / den correctly rounded, for num, den >= 0, and inf over
    den = 0, the lower end of a bracket too wide.  The quotient lies in
    (2**(bits-1), 2**(bits+1)): inf from bits = 1025 on, 0.0 (below
    2**-1075) up to bits = -1076, and between them a shift of at most
    about 1100 bits."""
    if not (num and den):
        return math.inf if num else 0.0
    bits = num.bit_length() - den.bit_length() + e
    if bits >= 1025:
        return math.inf
    if bits <= -1076:
        return 0.0
    try:
        return (num << e) / den if e >= 0 else num / (den << -e)
    except OverflowError:  # rounds past the largest double
        return math.inf


def _power_steps(e: int) -> int:
    """Products ``_power`` runs for an e-th power: a squaring per bit below
    the top one and a multiply per set bit below it."""
    return e.bit_length() + e.bit_count() - 2


def _steps_s(steps: int, p: int) -> float:
    """Estimated seconds for ``steps`` multiplications of p-bit brackets
    (``check_bound_cost`` has the fit)."""
    return steps * (1.8e-6 + min(1.7e-12 * p**2, 7e-11 * p**1.585))


def _decimal(k: int) -> str:
    """k in decimal for a guard message, or by its bit length where k has
    more digits than ``sys.get_int_max_str_digits()`` lets ``str`` print."""
    try:
        return str(k)
    except ValueError:
        return f"<{k.bit_length()}-bit integer>"


def _term(subsets: int, count: int, ell: int, i: int, k: int, what: str, den=None) -> float:
    """subsets * count**k / ell**(i*k) correctly rounded; ``den``, if
    given, is a bracket of ell**(i*k) at the first pass's precision.

    Rounding is monotone, so when both ends round to the same double,
    that double is the exact term's rounding.  Otherwise the pass runs
    again at twice the precision; at the exact size the ends meet.  Each
    pass that builds ell**(i*k) is first charged to ``check_cost``."""
    p = _PRECISION + k.bit_length()
    while True:
        if den is None:
            steps = _power_steps(k) + _power_steps(i * k) + 3
            check_cost(what, lambda: _steps_s(steps, p))
            den = _power(ell, i * k, p)
        lo, hi, e = _product(_shrink(subsets, subsets, 0, p), _power(count, k, p), p)
        low = _to_float(lo, den[1], e - den[2])
        if low == _to_float(hi, den[0], e - den[2]):
            return low
        p, den = 2 * p, None


def check_bound_cost(ell: int, n: int, k: int):
    """Raise ResourceGuardError when ``union_bound(_, ell, n, k)`` is
    estimated to exceed ``COST_GUARD_S``.

    It charges the census row (``rows_cost_s``) and, per term, one C(n,i)
    step and one truncation of count(ell,i) at 2.7e-10 s per bit on
    n*(1 + log2(ell)) bits, and the products of count(ell,i)**k
    (``_power_steps``) plus 3 at the first pass's precision; ``_term``
    charges each retry before it runs.  Fitted on a 2-core x86 VM under
    CPython 3.11 at the widths the loop uses (p = 98 to 4,083 bits), a
    charged step took 0.85-1.7e-6 s at 98 bits, 2.3-2.6e-6 at 1,093,
    5.2e-6 at 2,090 and 1.2-2.2e-5 at 3,418-4,083 (``_steps_s``: 1.8e-6,
    3.8e-6, 9.2e-6, 2.2-3.0e-5).  Past about 7,800 bits, as on a retry,
    the p**1.585 rate is the lower one: a multiplication took 0.10 s at
    786,432 bits (``_steps_s``: 0.15).  The term loop, census row
    prebuilt, took:

        ell, n, k          loop (s)      estimate (s)
        1000, 1000, 3       0.0053-0.0090  0.0120
        2, 30000, 3         0.32-0.49      1.00
        2, 100000, 3        2.57-3.45      9.01
        1, 200000, 3        8.69-11.5      23.4
        7, 1000, 280        0.0099-0.019   0.025
        2, 300, 10**300     0.78-1.43      1.54
        7, 200, 10**1000    10.3-18.4      19.3

    At large n the C(n,i) step is most of the loop.  Its rate is set so
    that each of the three large-n estimates is at least twice every quiet
    loop measured there; a slow phase of the host ran the loop at
    (2, 30000, 3) in 0.65 s.
    """
    def estimate():
        step_s = _steps_s(_power_steps(k) + 3, _PRECISION + k.bit_length())
        return rows_cost_s(ell, ell, n) + (n - 1) * (2.7e-10 * n * (1 + ell.bit_length()) + step_s)

    check_cost(f"the union bound at ell={ell}, n={n}, k={_decimal(k)}", estimate)


def union_bound(census: StoppingCensus, ell: int, n: int, k: int) -> BoundBreakdown:
    """Upper bound on the listing failure probability for k subtables of ell
    cells holding n entries, with the per-size breakdown.

    Every term is its exact value correctly rounded.  The i=1 term is
    absent because a single column always has a weight-1 row.
    Raises ResourceGuardError when the work is estimated over budget.
    """
    if ell < 1 or n < 1 or k < 1:
        raise ValueError("ell, n and k must be positive")
    check_bound_cost(ell, n, k)
    counts = census.row(ell, n)
    what = f"the union bound at ell={ell}, n={n}, k={_decimal(k)}"
    p = _PRECISION + k.bit_length()
    ell_k = den = _power(ell, k, p)
    subsets = math.comb(n, 2)  # C(n, i), advanced exactly to C(n, i+1)
    terms = []
    for i in range(2, n + 1):
        den = _product(den, ell_k, p)  # ell**(i*k), carried
        terms.append((i, _term(subsets, counts[i], ell, i, k, what, den)))
        subsets = subsets * (n - i) // (i + 1)
    try:
        total = math.fsum(value for _, value in terms)
    except OverflowError:  # finite terms summing past float range
        total = math.inf
    return BoundBreakdown(ell, n, k, tuple(terms), total, min(total, 1.0))


def size2_asymptote(ell: int, n: int, k: int) -> float:
    """Error-floor asymptote: probability mass of size-2 stopping sets,
    C(n,2) / ell**k.  It is the union bound's i=2 term, count(ell,2) = ell,
    bit for bit, and is refused where a pass of it is over budget."""
    if ell < 1 or k < 1 or n < 0:
        raise ValueError("ell and k must be positive, n nonnegative")
    if n < 2:
        return 0.0
    what = f"the size-2 asymptote at ell={ell}, n={n}, k={_decimal(k)}"
    return _term(math.comb(n, 2), ell, ell, 2, k, what)


def stopping_set_probability(census: StoppingCensus, ell: int, i: int, k: int) -> float:
    """Probability that a fixed set of i entries forms a stopping set,
    (count(ell,i) / ell**i) ** k: the union bound's term with C(n,i) = 1,
    correctly rounded (0.0 at i = 1, where count(ell, 1) = 0).

    Raises ResourceGuardError when the census row, before any work, or a
    pass of the term, before that pass, is estimated past ``COST_GUARD_S``.
    """
    if ell < 1 or i < 1 or k < 1:
        raise ValueError("ell, i and k must be positive")
    what = f"the stopping-set probability at ell={ell}, i={i}, k={_decimal(k)}"
    check_cost(what, lambda: rows_cost_s(ell, ell, i))
    return _term(1, census.count(ell, i), ell, i, k, what)
