"""Sampling-table helpers: float tables must decide exactly as the
exact arithmetic they replace.  The Monte Carlo standard error gives
`statistics.stdev`'s correctly rounded bits on every Python."""

from __future__ import annotations

import math
import random
import statistics
import sys
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import weighted_index
from pathprophet.util import (
    cumulative, default_enum_cap, derive_seed, exact_threshold, sample_stdev, stable_sum, trial_streams
)

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=10**12)
unit_floats = st.floats(min_value=0, max_value=1)


@given(st.one_of(unit_fractions, unit_floats, st.just(1.0), st.floats(allow_nan=False)))
@example(Fraction(1, 3))  # not dyadic: float(1/3) < 1/3
@example(Fraction(2, 3))  # not dyadic: float(2/3) > 2/3
def test_exact_threshold_decides_like_the_exact_value(a):
    t = exact_threshold(a)
    assert t >= a
    f = float(a)
    for c in (math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf)):
        assert (c < t) == (c < a)


def test_exact_threshold_rounds_up_when_the_float_falls_short():
    a = Fraction(1, 3)
    assert float(a) < a
    assert exact_threshold(a) == math.nextafter(float(a), math.inf)


weights = st.lists(st.one_of(unit_fractions, unit_floats, st.just(0)), min_size=1, max_size=6)


@given(weights, st.floats(min_value=0, max_value=1, exclude_max=True))
@example([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0], 0.9999999999999999)
def test_pick_matches_the_linear_scan(ws, u):
    cum, picks = cumulative(ws)
    assert picks[bisect_right(cum, u)] == weighted_index(ws, u)


@pytest.mark.parametrize("parts", [("traj",), ("feas", 3), ("opt",)], ids=["traj", "feas", "opt"])
def test_trial_streams_draw_what_a_fresh_generator_per_trial_draws(parts):
    master = 2**40 + 7
    streams = trial_streams(200, master, *parts)
    for j, rng in enumerate(streams):
        fresh = random.Random(derive_seed(master, *parts, j))
        for k in (1, 2, 7):
            assert (rng.random(), rng.randrange(k)) == (fresh.random(), fresh.randrange(k)), (parts, j, k)
        # gauss keeps the second value of each pair it draws: a reseed must drop it, as a fresh generator has none
        assert rng.gauss(0, 1) == fresh.gauss(0, 1), (parts, j)
    assert j == 199


def _outcome(total, vals):
    """repr of `total(vals)` (so -0.0 and 0 differ from 0.0), or the type of the exception it raises."""
    try:
        return repr(total(vals))
    except Exception as exc:
        return type(exc)


exact_terms = st.fractions(max_denominator=10**30) | st.sampled_from([Fraction(0), Fraction(-7, 3), Fraction(1, 3**40)])
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308, -0.0]
)
mixed_terms = st.lists(st.one_of(st.integers(), exact_terms, finite_floats), max_size=8)


@settings(deadline=None)
@given(mixed_terms, exact_terms, st.integers(min_value=0, max_value=8))
def test_stable_sum_with_a_fraction_is_the_exact_fraction_sum(vals, frac, at):
    vals.insert(at, frac)
    got = stable_sum(vals)
    assert type(got) is Fraction
    assert got == sum(map(Fraction, vals), Fraction(0))


@settings(deadline=None)
@given(mixed_terms, exact_terms, st.sampled_from([math.nan, math.inf, -math.inf]))
def test_stable_sum_refuses_a_non_finite_float_among_fractions_as_fraction_does(vals, frac, bad):
    refusal = _outcome(Fraction, bad)
    assert refusal in (ValueError, OverflowError)  # ValueError for NaN, OverflowError for inf
    assert _outcome(stable_sum, [frac, *vals, bad]) is refusal


@settings(deadline=None)
@given(st.lists(st.one_of(st.integers(min_value=-(2**60), max_value=2**60), finite_floats), max_size=8))
def test_stable_sum_without_a_fraction_is_fsum(vals):
    assert _outcome(stable_sum, vals) == _outcome(math.fsum, vals)


@pytest.mark.parametrize("raw, cap", [("abc", 10_000_000), ("0", 10_000_000), ("-5", 10_000_000), ("7", 7)])
def test_enum_cap_override_falls_back_to_the_default_unless_positive(monkeypatch, raw, cap):
    monkeypatch.setenv("PATHPROPHET_ENUM_CAP", raw)
    assert default_enum_cap() == cap


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),  # tiny and subnormal magnitudes
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5, 2.5]),
)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev is correctly rounded from 3.11 on")
@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(finite_floats, min_size=2, max_size=40))
@example([1.0, 2.0])  # n = 2
@example([0.1] * 7)  # equal values: an exact zero
@example([0.0, -0.0])  # signed zeros
@example([-0.0, -0.0, -0.0])
@example([5e-324, 0.0, -5e-324])  # subnormals
@example([1e308, -1e308])  # huge: the root is near the top of the float range
@example([1.7e308, -1.7e308])  # the root overflows a float
@example([1e-300, 3.0, 1e300])
def test_sample_stdev_is_statistics_stdev_to_the_bit(xs):
    try:
        want = statistics.stdev(xs)
    except OverflowError:
        with pytest.raises(OverflowError):
            sample_stdev(xs)
        return
    got = sample_stdev(xs)
    assert got == want and math.copysign(1, got) == math.copysign(1, want)
