"""Small numeric and seeding helpers."""

from __future__ import annotations

import hashlib
import math
import os
import random
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import StateCapError

DEFAULT_ENUM_CAP = 10_000_000
DEFAULT_STATE_CAP = 5_000_000
TOL = 1e-9


def default_enum_cap() -> int:
    """Enumeration cap, overridable via PATHPROPHET_ENUM_CAP."""
    raw = os.environ.get("PATHPROPHET_ENUM_CAP")
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        return DEFAULT_ENUM_CAP
    return cap if cap > 0 else DEFAULT_ENUM_CAP


def check_state_cap(positions: int, caps: Iterable[int], kind: str) -> None:
    """Refuse, before it allocates anything, a dynamic program over
    `positions` times every remaining-capacity vector of labels with
    capacities `caps` when those states exceed DEFAULT_STATE_CAP."""
    n_states = positions
    for c in caps:
        n_states *= c + 1
    if n_states > DEFAULT_STATE_CAP:
        raise StateCapError(f"{n_states} {kind} states exceed cap {DEFAULT_STATE_CAP}")


def stable_sum(values: Iterable) -> float | Fraction:
    """Sum that stays exact for Fractions and is compensated for floats."""
    vals = list(values)
    # one subclass test per distinct type: isinstance against the
    # Fraction ABC costs about as much as the float sum itself
    if any(issubclass(t, Fraction) for t in set(map(type, vals))):
        # exact integer ratios over one running common denominator, and one
        # canonical Fraction at the end: the one term-by-term addition gives
        num, den = 0, 1
        for v in vals:
            n, d = v.as_integer_ratio()  # NaN and inf raise as Fraction(v) does
            if den % d:
                k = d // math.gcd(den, d)
                num, den = num * k, den * k
            num += n * (den // d)
        return Fraction(num, den)
    return math.fsum(vals)


def sample_stdev(xs: Sequence[float]) -> float:
    """Sample standard deviation of two or more finite floats, correctly rounded (the bits of 3.11's
    `statistics.stdev` on every Python): the exact variance over the largest denominator, a power of two,
    and its square root rounded to odd with `math.isqrt`, as `statistics._float_sqrt_of_frac` does."""
    ratios = [x.as_integer_ratio() for x in xs]
    d = max([r for _, r in ratios])
    nums = [p * (d // r) for p, r in ratios]
    n, s = len(nums), sum(nums)
    num, den = n * sum([x * x for x in nums]) - s * s, n * (n - 1) * d * d
    q = (num.bit_length() - den.bit_length() - 2 * sys.float_info.mant_dig - 3) // 2
    top, bottom = (num, den << 2 * q) if q >= 0 else (num << -2 * q, den)  # sqrt(num / den) = sqrt(top / bottom) * 2^q
    root = math.isqrt(top // bottom)
    root |= root * root * bottom != top  # round to odd: an inexact root keeps its low bit set
    return (root << max(q, 0)) / (1 << max(-q, 0))


def derive_seed(master: int, *parts: object) -> int:
    """Deterministic 64-bit stream seed from a master seed and a path of parts.

    Stable across processes and platforms; used so that trial j of a
    Monte Carlo run never depends on how many draws earlier trials made.
    """
    key = "/".join(map(str, (master, *parts)))
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def trial_streams(trials: int, master: int, *parts: object) -> Iterator[random.Random]:
    """Trial j's stream for j = 0..trials-1: one `random.Random`, reseeded
    with `derive_seed(master, *parts, j)` before it is yielded, so that it
    draws what `random.Random(derive_seed(master, *parts, j))` would.  The
    shared prefix is hashed once, and its hash object copied per trial."""
    prefix = hashlib.sha256("/".join(map(str, (master, *parts, ""))).encode())
    rng = random.Random(0)
    # what `rng.seed(n)` does for an int n, without its Python-level type checks
    seed = super(random.Random, rng).seed
    for j in range(trials):
        h = prefix.copy()
        h.update(str(j).encode())
        seed(int.from_bytes(h.digest()[:8], "big"))
        rng.gauss_next = None
        yield rng


def cumulative(weights: Sequence[float]) -> tuple[list[float], list[int]]:
    """Sampling table for nonnegative weights summing to ~1: the float
    running sums `cum`, and per index that `bisect_right(cum, u)` can
    return the bucket it draws, `picks`: the index itself, and for
    rounding drift past the last sum the last positive-weight bucket.
    A uniform u in [0, 1) draws `picks[bisect_right(cum, u)]`."""
    acc = 0.0
    last_positive = 0
    cum = []
    for i, w in enumerate(weights):
        if w > 0:
            last_positive = i
        acc += w
        cum.append(acc)
    return cum, [*range(len(cum)), last_positive]


def exact_threshold(a: float | Fraction) -> float:
    """Smallest float t >= a, so that `c < t` equals `c < a` for every
    float c; lets an exact acceptance probability be compared as a float."""
    t = float(a)
    return math.nextafter(t, math.inf) if t < a else t
