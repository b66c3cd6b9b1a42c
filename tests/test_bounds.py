import math
import random
from fractions import Fraction

import pytest

from ibltlab import (
    BoundBreakdown,
    ResourceGuardError,
    size2_asymptote,
    stopping_set_probability,
    union_bound,
)
import ibltlab.bounds
from ibltlab.bounds import (
    _provably_past_float_range,
    _ratio_term,
    check_bound_cost,
)
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
    from ibltlab import StoppingCensus

    with pytest.raises(ValueError):
        union_bound(StoppingCensus(), 0, 2, 1)
    with pytest.raises(ValueError):
        size2_asymptote(0, 2, 1)
    with pytest.raises(ValueError):
        stopping_set_probability(StoppingCensus(), 2, 0, 1)
    census = StoppingCensus()
    with pytest.raises(ResourceGuardError):
        union_bound(census, 5000, 3000, 3)
    assert census.known() == {}  # refused before any work


def test_bound_cost_charges_no_binomials():
    # union_bound advances C(n, i) by one multiply and divide per term, so
    # the cost guard charges no binomial beyond that step; at ell=2,
    # n=15000 the estimate is about 0.64 s (0.3 s measured on a 2-core x86
    # VM).
    check_bound_cost(2, 15000, 3)


@pytest.mark.parametrize("ell", range(1, 9))
def test_cost_guard_skips_only_terms_past_float_range(census, ell):
    # union_bound and its cost guard skip the power of a term exactly when
    # the census-free lower bound puts it past float range; checked here in
    # exact integers, C(n,i) * count**k / ell**(i*k) >= 2**1024.
    skipped = 0
    for n in (2, 40, 1030, 1100, 3000):
        counts = census.row(ell, n)
        for k in range(1, 5):
            subsets = math.comb(n, 2)
            for i in range(2, n + 1):
                if _provably_past_float_range(ell, n, k, i):
                    skipped += 1
                    assert subsets * counts[i] ** k >= ell ** (i * k) << 1024, (n, k, i)
                subsets = subsets * (n - i) // (i + 1)
    assert skipped > 0


def test_cost_guard_sees_the_overflowing_terms():
    # At (2, 1200, 3) the lower bound shows all 523 terms that union_bound
    # records as inf (i = 339..861), the outermost by 0.3 bits.
    shown = [i for i in range(2, 1201) if _provably_past_float_range(2, 1200, 3, i)]
    assert shown == list(range(339, 862))


def test_bound_cost_skips_the_powers_of_overflowing_terms():
    # ell = 2, n = 30000 runs in about 1 s (2-core x86 VM); charging the
    # powers of its terms past float range estimated it at 46.6 s.
    check_bound_cost(2, 30000, 3)
    # The census row alone refuses ell = 1 far past that.
    with pytest.raises(ResourceGuardError, match="estimated"):
        check_bound_cost(1, 1_000_000, 1)


def test_peeling_region_bound_blows_up(census):
    # Deep in the undecodable regime the raw bound explodes; clamp holds.
    breakdown = union_bound(census, 10, 100, 3)
    assert breakdown.total > 1.0
    assert breakdown.total_clamped == 1.0


def test_terms_past_float_range_match_the_plain_quotients(census):
    # The bound skips the powers of the terms its lower bound shows past
    # float range; the others past it reach the division, whose overflow
    # makes them inf.  Either way each term equals the plain quotient.
    for (ell, n, k), inf_terms, by_division in (
        ((2, 1200, 3), 523, 0),  # i = 339..861, all shown by the lower bound
        ((2, 1030, 1), 31, 31),
        ((10, 3000, 3), 2617, 2),
    ):
        counts = census.row(ell, n)
        plain = tuple(
            (i, _ratio_term(math.comb(n, i) * counts[i] ** k, ell ** (i * k)))
            for i in range(2, n + 1)
        )
        assert union_bound(census, ell, n, k).terms == plain
        past = [i for i, value in plain if value == math.inf]
        assert len(past) == inf_terms
        assert sum(not _provably_past_float_range(ell, n, k, i) for i in past) == by_division


def test_overflowing_terms_are_not_divided(census, monkeypatch):
    # The 523 terms past float range (i = 339..861) are recorded as inf
    # before their power is built, so none reaches the division.
    results = []
    ratio_term = ibltlab.bounds._ratio_term
    monkeypatch.setattr(
        ibltlab.bounds, "_ratio_term", lambda *a: results.append(ratio_term(*a)) or results[-1]
    )
    breakdown = union_bound(census, 2, 1200, 3)
    assert sum(value == math.inf for _, value in breakdown.terms) == 523
    assert len(results) == 1199 - 523
    assert math.inf not in results
