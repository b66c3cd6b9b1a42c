"""Union bound on the listing failure probability and its error-floor asymptote.

The failure event is a union over entry subsets of "this subset is a
stopping set"; a fixed subset of size i is a stopping set with probability
(count(ell,i) / ell**i) ** k under the uniform-hash model.  The bound
sums C(n,i) such terms over i = 2..n (a single entry can never stop).

Terms are evaluated as exact-integer numerator/denominator pairs and
converted by one correctly-rounded true division each, so small cases come
out bit-exact (the i=2 term IS the floor asymptote) while huge mixed-scale
terms -- C(210,105) alone is ~1e61 and the ratio underflows a double --
still land on the correctly rounded product.  A term that
``_provably_past_float_range`` shows to be past float range is recorded as
inf without building its power count**k, the bulk of the work at large n
and small ell, and the cost guard charges no power for exactly those terms.
Any other term whose quotient overflows is inf too, from its division.
Totals above float range degrade to inf; the clamped total is then 1.
"""

import math
from typing import NamedTuple

from ibltlab.census import COST_GUARD_S, StoppingCensus, check_cost, rows_cost_s


class BoundBreakdown(NamedTuple):
    ell: int
    n: int
    k: int
    terms: tuple[tuple[int, float], ...]  # (subset size i, term value)
    total: float
    total_clamped: float

    def term(self, i: int) -> float:
        return dict(self.terms)[i]


def _ratio_term(numerator: int, denominator: int) -> float:
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf


def _provably_past_float_range(ell: int, n: int, k: int, i: int) -> bool:
    """Whether term i of the union bound is at least 2**1024, shown by a
    lower bound that needs no census count.

    An i-set fails to stop in a block only if some row holds exactly one
    of its entries; a union bound over the ell rows gives
    count(ell,i)/ell**i >= 1 - i*(1-1/ell)**(i-1), so term i is at least
    C(n,i) * (1 - i*(1-1/ell)**(i-1))**k.  Its log, taken only where
    i*(1-1/ell)**(i-1) <= 1/2, must reach 1025 bits: a margin of one bit
    is far more than the rounding of the logs at any n and k the cost
    guard admits.  This is the one rule for skipping a power:
    ``union_bound`` records every term it accepts as inf without building
    count(ell,i)**k, and ``check_bound_cost`` charges such a term no power."""
    single = i * (1 - 1 / ell) ** (i - 1)
    if single > 0.5:
        return False
    log_subsets = math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
    bits = (log_subsets + k * math.log1p(-single)) / math.log(2)
    return bits >= 1025


def check_bound_cost(ell: int, n: int, k: int):
    """Raise ResourceGuardError when ``union_bound(_, ell, n, k)`` is
    estimated to exceed ``COST_GUARD_S``.

    Besides the census row, a term takes a power count(ell,i)**k of up to
    b = k*n*log2(ell) bits, unless ``_provably_past_float_range`` shows it
    is inf; ``union_bound`` then builds no power, and the term costs about
    n + b bit operations.  The terms are walked only when the census row
    is under budget, which bounds n by about 4e5.  The rates were fitted
    on a 2-core x86 VM under CPython 3.11.
    """
    def estimate():
        seconds = rows_cost_s(ell, ell, n)
        if seconds <= COST_GUARD_S:
            bits = float(k * n * max(1, ell.bit_length()))
            inf_terms = sum(
                _provably_past_float_range(ell, n, k, i) for i in range(2, n + 1)
            )
            seconds += 2e-11 * (n - 1 - inf_terms) * bits**1.5
            seconds += 2e-10 * inf_terms * (n + bits)
        return seconds

    check_cost(f"the union bound at ell={ell}, n={n}, k={k}", estimate)


def union_bound(census: StoppingCensus, ell: int, n: int, k: int) -> BoundBreakdown:
    """Upper bound on the listing failure probability for k subtables of ell
    cells holding n entries, with the per-size breakdown.

    The i=1 term is absent because a single column always has a weight-1 row.
    Raises ResourceGuardError when the work is estimated over budget.
    """
    if ell < 1 or n < 1 or k < 1:
        raise ValueError("ell, n and k must be positive")
    check_bound_cost(ell, n, k)
    counts = census.row(ell, n)
    terms = []
    # At n = 1 no term reads a power of ell, so none is built.
    ell_k = ell**k if n > 1 else 1
    denominator = ell_k * ell_k
    subsets = math.comb(n, 2)  # C(n, i), advanced exactly to C(n, i+1)
    for i in range(2, n + 1):
        if _provably_past_float_range(ell, n, k, i):
            terms.append((i, math.inf))
        else:
            terms.append((i, _ratio_term(subsets * counts[i] ** k, denominator)))
        subsets = subsets * (n - i) // (i + 1)
        denominator *= ell_k
    try:
        total = math.fsum(value for _, value in terms)
    except OverflowError:  # finite terms summing past float range
        total = math.inf
    return BoundBreakdown(ell, n, k, tuple(terms), total, min(total, 1.0))


def size2_asymptote(ell: int, n: int, k: int) -> float:
    """Error-floor asymptote: probability mass of size-2 stopping sets,
    C(n,2) / ell**k.  Matches the union bound's i=2 term bit for bit."""
    if ell < 1 or k < 1 or n < 0:
        raise ValueError("ell and k must be positive, n nonnegative")
    if n < 2:
        return 0.0
    return _ratio_term(math.comb(n, 2), ell**k)


def stopping_set_probability(census: StoppingCensus, ell: int, i: int, k: int) -> float:
    """Probability that a fixed set of i entries forms a stopping set."""
    if ell < 1 or i < 1 or k < 1:
        raise ValueError("ell, i and k must be positive")
    return _ratio_term(census.count(ell, i) ** k, ell ** (i * k))
