import json
import math
import random
from fractions import Fraction

import pytest

from ibltlab import (
    BoundBreakdown,
    ResourceGuardError,
    StoppingCensus,
    size2_asymptote,
    stopping_set_probability,
    union_bound,
)
import ibltlab.bounds
from ibltlab.bounds import check_bound_cost
from ibltlab.census import rows_cost_s
from reference import is_stopping_matrix


def test_single_term_bound_is_exact(census):
    breakdown = union_bound(census, 4, 2, 3)
    assert breakdown.total == 0.015625  # C(2,2) * (4/16)**3 = 1/64
    assert breakdown.total_clamped == 0.015625
    assert breakdown.terms == ((2, 0.015625),)


def test_raw_bound_can_exceed_one(census):
    breakdown = union_bound(census, 2, 3, 1)
    assert breakdown.total == 1.75  # 3*(2/4) + 1*(2/8)
    assert breakdown.total_clamped == 1.0


def test_breakdown_is_an_immutable_record(census):
    ell, n, k = 140, 210, 3
    breakdown = union_bound(census, ell, n, k)
    assert BoundBreakdown._fields == ("ell", "n", "k", "terms", "total", "total_clamped")
    assert breakdown[:3] == (ell, n, k)
    assert breakdown.terms[0][0] == 2 and len(breakdown.terms) == n - 1
    assert breakdown.term(2).hex() == size2_asymptote(ell, n, k).hex()
    for name in ("total", "terms", "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(breakdown, name, 0.0)
    assert breakdown == union_bound(census, ell, n, k)


def test_single_entry_bound_is_empty_sum(census):
    breakdown = union_bound(census, 5, 1, 2)
    assert breakdown.terms == ()
    assert breakdown.total == 0.0


def test_size2_asymptote_values():
    assert size2_asymptote(280, 210, 3) == 21945 / 280**3
    assert size2_asymptote(280, 210, 3) == pytest.approx(9.996811e-4, rel=1e-6)
    assert size2_asymptote(2, 2, 1074) == 2.0**-1074  # the smallest subnormal
    assert size2_asymptote(2, 2, 1075) == 0.0
    assert size2_asymptote(7, 1, 3) == 0.0
    assert size2_asymptote(7, 0, 3) == 0.0


def test_asymptote_equals_size2_term_bitwise(census):
    for ell, n, k in [(2, 2, 1), (5, 7, 2), (40, 100, 3), (280, 210, 3), (17, 30, 6)]:
        breakdown = union_bound(census, ell, n, k)
        assert breakdown.term(2) == size2_asymptote(ell, n, k)


def test_stopping_set_probability_values(census):
    assert stopping_set_probability(census, 9, 1, 2) == 0.0
    assert stopping_set_probability(census, 2, 2, 2) == 0.25
    expected = float(Fraction(census.count(3, 3) ** 2, 3**6))
    assert stopping_set_probability(census, 3, 3, 2) == expected


# The probability at each (ell, i, k) of the child's argument, under a
# 10 s CPU limit.
_PROBABILITIES_UNDER_CPU_LIMIT = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_CPU, (10, 10))
from ibltlab import StoppingCensus, stopping_set_probability
for shape in json.loads(sys.argv[1]):
    print(stopping_set_probability(StoppingCensus(), *shape))
"""


def test_stopping_set_probability_builds_no_power_it_cannot_afford(capped_python):
    # count(8, 1) = 0, and the next two round to 0.0.  Building their
    # powers in full ended in MemoryError at the first two under a 1 GiB
    # address cap, and took 21 s at the third.  The fourth is near 1; its
    # power count(2, 40000)**(10**4), about 4e8 bits, was refused until
    # terms were bracketed at bounded precision.  At ell = 1 every power
    # is 1.
    shapes = [
        (8, 1, 10**12), (2, 4, 10**9), (10**6, 3, 10**6), (2, 40000, 10**4), (1, 2, 10**12)
    ]
    result = capped_python(_PROBABILITIES_UNDER_CPU_LIMIT, json.dumps(shapes))
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.split() == ["0.0", "0.0", "0.0", "1.0", "1.0"]


def test_stopping_set_probability_matches_sampling(census):
    # Empirical frequency of "these 3 fixed columns form a stopping matrix"
    # over random placements, both subtables stacked.
    ell, n, k = 3, 3, 2
    rng = random.Random(20240)
    trials = 100_000
    hits = 0
    for _ in range(trials):
        placements = tuple(
            tuple(rng.randrange(ell) for _ in range(n)) for _ in range(k)
        )
        rows = [[0] * n for _ in range(ell * k)]
        for i, block in enumerate(placements):
            for j, r in enumerate(block):
                rows[i * ell + r][j] = 1
        hits += is_stopping_matrix(rows)
    p = stopping_set_probability(census, ell, n, k)  # (3/27)**2
    half_width = 1.96 * math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < half_width + 1e-12


def test_total_approaches_asymptote_for_large_ell(census):
    n, k = 10, 3
    ell = 20 * n
    breakdown = union_bound(census, ell, n, k)
    assert breakdown.total / size2_asymptote(ell, n, k) < 1.01


def test_bound_decreases_with_k_at_large_ell(census):
    values = [union_bound(census, 200, 100, k).total for k in range(3, 7)]
    assert values == sorted(values, reverse=True)
    assert values[-1] < values[0]


def test_terms_are_nonnegative_and_sum(census):
    # fsum is correctly rounded, so the order of the terms cannot change
    # the total; at (2, 1200, 3) 523 of the terms are inf.
    for shape in ((7, 25, 2), (2, 1200, 3)):
        breakdown = union_bound(census, *shape)
        values = [value for _, value in breakdown.terms]
        assert all(value >= 0 for value in values)
        random.Random(0).shuffle(values)
        assert breakdown.total == math.fsum(values)


def test_validation():
    with pytest.raises(ValueError):
        union_bound(StoppingCensus(), 0, 2, 1)
    with pytest.raises(ValueError):
        size2_asymptote(0, 2, 1)
    with pytest.raises(ValueError):
        stopping_set_probability(StoppingCensus(), 2, 0, 1)
    census = StoppingCensus()
    with pytest.raises(ResourceGuardError):
        union_bound(census, 5000, 6000, 3)
    assert census.known() == {}  # refused before any work


def test_bound_cost_charges_no_binomials():
    # union_bound advances C(n, i) by one multiply and divide per term, so
    # the cost guard charges no binomial beyond that step; at ell=2,
    # n=15000 the estimate is about 0.44 s (0.14-0.22 s measured on a
    # 2-core x86 VM).
    check_bound_cost(2, 15000, 3)


def test_bound_cost_charges_the_census_row_and_the_term_loop():
    # ell = 2, n = 30000 runs in about 0.5 s (2-core x86 VM); charging the
    # powers of its terms past float range estimated it at 46.6 s.
    check_bound_cost(2, 30000, 3)
    # The census row alone refuses ell = 1 far past that.
    with pytest.raises(ResourceGuardError, match="estimated"):
        check_bound_cost(1, 1_000_000, 1)
    # The row is charged min(ell, n//2) recurrence steps per column: the
    # row (5000, 3000) took 6.0-8.5 s and is admitted, twice its columns
    # are refused.
    check_bound_cost(5000, 3000, 3)
    with pytest.raises(ResourceGuardError, match="estimated"):
        check_bound_cost(5000, 6000, 3)


@pytest.mark.parametrize(
    "ell, n, slowest_loop_s",
    [(2, 30000, 0.49), (2, 100000, 3.45), (1, 200000, 11.5)],
)
def test_bound_cost_charges_the_term_loop_twice_its_slowest_quiet_run(
    monkeypatch, ell, n, slowest_loop_s
):
    # The slowest quiet term loop, census row prebuilt, at k = 3 on a
    # 2-core x86 VM; the C(n, i) step is most of it.
    estimates = []
    monkeypatch.setattr(
        ibltlab.bounds, "check_cost", lambda what, estimate: estimates.append(estimate())
    )
    check_bound_cost(ell, n, 3)
    assert estimates[0] - rows_cost_s(ell, ell, n) >= 2 * slowest_loop_s


def test_guards_refuse_a_k_too_wide_for_decimal():
    # k = 10**20000 has more digits than str() prints by default; each
    # guard names it by its bit length and refuses it, one first pass of a
    # term being charged minutes.
    k = 10**20000
    calls = [
        lambda: union_bound(StoppingCensus(), 7, 200, k),
        lambda: size2_asymptote(7, 200, k),
        lambda: check_bound_cost(7, 200, k),
        lambda: stopping_set_probability(StoppingCensus(), 7, 3, k),
    ]
    for call in calls:
        with pytest.raises(ResourceGuardError, match=r"k=<66439-bit integer> is estimated"):
            call()


def test_peeling_region_bound_blows_up(census):
    # Deep in the undecodable regime the raw bound explodes; clamp holds.
    breakdown = union_bound(census, 10, 100, 3)
    assert breakdown.total > 1.0
    assert breakdown.total_clamped == 1.0


# Shapes whose every term is checked against exact integers: the smallest
# subnormal 2**-1074 at (2, 2, 1074), which is 0.0 from k = 1075 on; the
# overflow edge, where terms from i = 31 at (2, 1030, 1) and i = 339 at
# (2, 1200, 3) pass float range; terms that round to 0.0, at (8, 60, 400)
# for i = 2..20 and at large ell; ell = 1; and bound-curve's two n = 210
# shapes.
_GRID = [(2, 2, k) for k in range(1073, 1077)] + [
    (2, 1030, 1), (2, 1200, 3), (8, 60, 400), (10**6, 60, 32), (2**64 - 1, 30, 7),
    (3, 4, 1000), (7, 25, 2), (1, 6, 5), (140, 210, 3), (280, 210, 3),
]


def _exact_terms(census, ell, n, k):
    """(i, C(n,i) * count(ell,i)**k, ell**(i*k)) for i = 2..n."""
    counts = census.row(ell, n)
    return [(i, math.comb(n, i) * counts[i] ** k, ell ** (i * k)) for i in range(2, n + 1)]


def _quotient(numerator, denominator):
    """The double nearest numerator / denominator, inf past float range."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf


def _assert_terms_are_exact(census, ell, n, k):
    breakdown = union_bound(census, ell, n, k)
    assert breakdown.terms == tuple(
        (i, _quotient(num, den)) for i, num, den in _exact_terms(census, ell, n, k)
    )
    assert size2_asymptote(ell, n, k) == breakdown.term(2)


@pytest.mark.parametrize("ell, n, k", _GRID)
def test_terms_equal_the_exact_quotients(census, ell, n, k):
    _assert_terms_are_exact(census, ell, n, k)


@pytest.mark.parametrize("ell, n, k", _GRID)
def test_bracket_ends_enclose_the_exact_term(census, monkeypatch, ell, n, k):
    # Each term's pass divides its lower end, then its upper end, each as
    # (num, den, e) for num * 2**e / den; at the first precision every
    # grid term is told in one pass, and its two ends enclose it.
    ends = []
    to_float = ibltlab.bounds._to_float
    monkeypatch.setattr(
        ibltlab.bounds, "_to_float", lambda *end: ends.append(end) or to_float(*end)
    )
    union_bound(census, ell, n, k)
    exact = _exact_terms(census, ell, n, k)
    assert len(ends) == 2 * len(exact)
    for (i, num, den), low, high in zip(exact, ends[::2], ends[1::2]):
        term = Fraction(num, den)
        assert Fraction(low[0], low[1]) * Fraction(2) ** low[2] <= term, i
        assert high[1] == 0 or term <= Fraction(high[0], high[1]) * Fraction(2) ** high[2], i


def test_retried_terms_equal_the_exact_quotients(census, monkeypatch):
    # From 8 bits past those the powers spend, most grid terms need more
    # passes, each at twice the precision and dividing both ends again;
    # they still land on the exact quotients.
    ends = []
    to_float = ibltlab.bounds._to_float
    monkeypatch.setattr(ibltlab.bounds, "_PRECISION", 8)
    monkeypatch.setattr(
        ibltlab.bounds, "_to_float", lambda *end: ends.append(end) or to_float(*end)
    )
    for shape in _GRID:
        _assert_terms_are_exact(census, *shape)
    # A pass divides two ends; one pass per term would divide 2*(n-1) in
    # the bound and 2 in size2_asymptote.
    assert len(ends) > 2 * sum(n for _, n, _ in _GRID)
