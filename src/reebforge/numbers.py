"""Exact and certified arithmetic used throughout the package.

Three layers, cheapest first:

* plain ``Fraction`` arithmetic for every constructed parameter (distances,
  radii ratios, annulus bounds, angles as fractions of a full turn);
* scalar interval arithmetic at a configurable bit precision (mpmath's
  ``iv`` context) for one-off certified predicates;
* vectorised float64 intervals with outward rounding (``BoxArray``) for bulk
  certification work such as gradient enclosures at thousands of points.

Nothing in here knows about circles or polynomials.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np
from mpmath import iv, mp

Rational = Union[int, Fraction]

DEFAULT_PRECISION_BITS = 128

# dyadic accuracy used when rounding certified bounds back to small rationals
BOUND_BITS = 64


@contextmanager
def interval_precision(bits: int):
    """Temporarily set the working precision of the shared interval context."""
    old = iv.prec
    iv.prec = int(bits)
    try:
        yield iv
    finally:
        iv.prec = old


def to_interval(x: Rational):
    """Enclose an exact rational in an interval at the current precision."""
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    return iv.mpf(x)


def _libmp_to_fraction(t) -> Fraction:
    sign, man, exp, bc = t
    fr = Fraction(int(man)) * (Fraction(2) ** int(exp))
    return -fr if sign else fr


def interval_inf(x) -> Fraction:
    """Exact lower endpoint of an mpmath interval as a Fraction."""
    return _libmp_to_fraction(x._mpi_[0])


def interval_sup(x) -> Fraction:
    """Exact upper endpoint of an mpmath interval as a Fraction."""
    return _libmp_to_fraction(x._mpi_[1])


def interval_mid(x) -> Fraction:
    return (interval_inf(x) + interval_sup(x)) / 2


def certainly_positive(x) -> bool:
    return interval_inf(x) > 0


def certainly_negative(x) -> bool:
    return interval_sup(x) < 0


def dyadic_floor(x: Fraction, bits: int) -> Fraction:
    """Largest multiple of 2**-bits that is <= x."""
    scaled = x * (1 << bits)
    return Fraction(scaled.numerator // scaled.denominator, 1 << bits)


def dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    scaled = x * (1 << bits)
    return Fraction(-((-scaled.numerator) // scaled.denominator), 1 << bits)


def dyadic_significant(x: Fraction, sig_bits: int) -> Fraction:
    """Round toward zero keeping roughly sig_bits significant bits, so the
    relative error stays near 2**-sig_bits regardless of magnitude."""
    if x == 0:
        return x
    mag = abs(x)
    exp = mag.numerator.bit_length() - mag.denominator.bit_length()
    bits = max(sig_bits - exp, 0)
    if x > 0:
        return dyadic_floor(x, bits)
    return -dyadic_floor(-x, bits)


@lru_cache(maxsize=None)
def sin_half_sector_bounds(k: int, bits: int = BOUND_BITS) -> tuple[Fraction, Fraction]:
    """Certified dyadic bounds (lo, hi) for sin(pi/k), the tangency ratio.

    A circle centred on a sector bisector at distance d from the origin is
    tangent to both bounding rays of the sector exactly when its radius is
    d*sin(pi/k); every placement predicate reduces to comparisons against
    this one constant, so it is cached per (k, bits).
    """
    if k < 3:
        raise ValueError("sector count must be at least 3")
    with interval_precision(bits + 32):
        s = iv.sin(iv.pi / k)
        lo = dyadic_floor(interval_inf(s), bits)
        hi = dyadic_ceil(interval_sup(s), bits)
    if not (0 < lo <= hi < 1):
        raise ValueError("tangency ratio bounds out of range")
    return lo, hi


@lru_cache(maxsize=None)
def cos_half_sector_bounds(k: int, bits: int = BOUND_BITS) -> tuple[Fraction, Fraction]:
    """Certified dyadic bounds for cos(pi/k)."""
    with interval_precision(bits + 32):
        c = iv.cos(iv.pi / k)
        lo = dyadic_floor(interval_inf(c), bits)
        hi = dyadic_ceil(interval_sup(c), bits)
    return lo, hi


def parse_rational(text: str) -> Fraction:
    """Accept 'p/q' or a decimal string; return an exact Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError("rational %r has a zero denominator" % text)
        return Fraction(int(num), int(den))
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


@dataclass(frozen=True)
class TurnAngle:
    """An angle stored exactly as a fraction of a full turn, in [0, 1)."""

    turns: Fraction

    def __post_init__(self):
        t = Fraction(self.turns)
        t -= t.numerator // t.denominator  # reduce mod 1
        object.__setattr__(self, "turns", t)

    def label(self) -> str:
        return "%d/%d of 2pi" % (self.turns.numerator, self.turns.denominator)

    def __lt__(self, other: "TurnAngle") -> bool:
        return self.turns < other.turns

    @staticmethod
    def parse(label: str) -> "TurnAngle":
        head = label.split("of")[0].strip()
        return TurnAngle(parse_rational(head))


def turn_sin_cos(t: Fraction):
    """Interval sin/cos of an exact fraction of a full turn."""
    theta = 2 * iv.pi * to_interval(t)
    return iv.sin(theta), iv.cos(theta)


# ---------------------------------------------------------------------------
# vectorised outward-rounded float64 intervals
# ---------------------------------------------------------------------------

_NEG_INF = -np.inf
_POS_INF = np.inf


def _down(a):
    return np.nextafter(a, _NEG_INF)


def _up(a):
    return np.nextafter(a, _POS_INF)


def float_bounds(x: Rational) -> tuple[float, float]:
    """Directed float64 bounds of an exact rational."""
    f = float(x)
    if Fraction(f) == Fraction(x):
        return f, f
    lo, hi = np.nextafter(f, _NEG_INF), np.nextafter(f, _POS_INF)
    # one nudge always suffices: float(x) is the nearest double
    return float(lo), float(hi)


class BoxArray:
    """Arrays of closed float64 intervals with outward rounding.

    Every arithmetic result widens its endpoints by one ulp, so enclosures
    stay sound; the cost over plain numpy is a small constant factor, which
    keeps certification of 1e3..1e5 point batches cheap.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = np.asarray(lo, dtype=np.float64)
        hi = lo if hi is None else np.asarray(hi, dtype=np.float64)
        self.lo, self.hi = ((lo, hi) if lo.shape == hi.shape
                            else np.broadcast_arrays(lo, hi))

    @classmethod
    def exact(cls, value) -> "BoxArray":
        if isinstance(value, (Fraction, int)):
            lo, hi = float_bounds(value)
            return cls(lo, hi)
        return cls(value)

    def _coerce(self, other) -> "BoxArray":
        if isinstance(other, BoxArray):
            return other
        return BoxArray.exact(other)

    def __add__(self, other):
        o = self._coerce(other)
        return BoxArray(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self):
        return BoxArray(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        p1 = self.lo * o.lo
        p2 = self.lo * o.hi
        p3 = self.hi * o.lo
        p4 = self.hi * o.hi
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
        return BoxArray(_down(lo), _up(hi))

    __rmul__ = __mul__

    def square(self):
        a = self.lo * self.lo
        b = self.hi * self.hi
        hi = np.maximum(a, b)
        lo = np.minimum(a, b)
        straddles = (self.lo < 0) & (self.hi > 0)
        lo = np.where(straddles, 0.0, np.maximum(_down(lo), 0.0))
        return BoxArray(lo, _up(hi))

    def sqrt(self):
        lo = np.sqrt(np.maximum(self.lo, 0.0))
        hi = np.sqrt(np.maximum(self.hi, 0.0))
        return BoxArray(np.maximum(_down(lo), 0.0), _up(hi))

    def __repr__(self):
        return "BoxArray(%r, %r)" % (self.lo, self.hi)


def decimal_string(x, digits: int) -> str:
    """Deterministic decimal rendering of an exact rational or mpmath number."""
    with mp.workdps(digits + 8):
        if isinstance(x, Fraction):
            x = mp.mpf(x.numerator) / x.denominator
        return mp.nstr(x, digits, strip_zeros=True)
