"""Small numeric and seeding helpers."""

from __future__ import annotations

import hashlib
import math
import os
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

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
        total = Fraction(0)
        for v in vals:
            total += v if isinstance(v, Fraction) else Fraction(v)
        return total
    return math.fsum(vals)


def derive_seed(master: int, *parts: object) -> int:
    """Deterministic 64-bit stream seed from a master seed and a path of parts.

    Stable across processes and platforms; used so that trial j of a
    Monte Carlo run never depends on how many draws earlier trials made.
    """
    h = hashlib.sha256()
    h.update(str(master).encode())
    for part in parts:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "big")


def cumulative(weights: Sequence[float]) -> tuple[list[float], int]:
    """Sampling table for nonnegative weights summing to ~1: the float
    running sums and the last positive-weight index (see `pick`)."""
    acc = 0.0
    last_positive = 0
    cum = []
    for i, w in enumerate(weights):
        if w > 0:
            last_positive = i
        acc += w
        cum.append(acc)
    return cum, last_positive


def pick(table: tuple[list[float], int], u: float) -> int:
    """Index of the bucket that u in [0, 1) falls in; rounding drift past
    the last sum resolves to the last positive-weight bucket."""
    cum, last_positive = table
    i = bisect_right(cum, u)
    return i if i < len(cum) else last_positive


def exact_threshold(a: float | Fraction) -> float:
    """Smallest float t >= a, so that `c < t` equals `c < a` for every
    float c; lets an exact acceptance probability be compared as a float."""
    t = float(a)
    return math.nextafter(t, math.inf) if t < a else t
