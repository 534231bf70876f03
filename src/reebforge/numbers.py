"""Exact and certified arithmetic used throughout the package.

Three layers, cheapest first:

* plain ``Fraction`` arithmetic for every constructed parameter (distances,
  radii ratios, annulus bounds, angles as fractions of a full turn);
* scalar interval arithmetic at a configurable bit precision (mpmath's
  ``iv`` context) for one-off certified predicates, and for gradients as
  dual numbers over it;
* vectorised float64 intervals with outward rounding (``BoxArray``) for bulk
  certification work: the disjointness margins of the circle pairs in one
  sector or in neighbouring ones, with the boundary margins, and the factor
  values over each ellipsoid's disk cover.

Nothing in here knows about circles or polynomials.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np
from mpmath import iv, mp
from mpmath.libmp import (from_int, mpi_cos_sin, mpi_div, mpi_mul,
                          round_ceiling, round_floor)
from mpmath.libmp.libmpi import mpi_pi

Rational = Union[int, Fraction]

DEFAULT_PRECISION_BITS = 128
# the smallest working precision a spec, the environment or export accepts
MIN_PRECISION_BITS = 16

# dyadic accuracy used when rounding certified bounds back to small rationals
BOUND_BITS = 64


def check_precision_bits(bits, what: str) -> int:
    """Return `bits` if it is an integer of at least MIN_PRECISION_BITS,
    else raise ValueError naming `what`."""
    if (not isinstance(bits, int) or isinstance(bits, bool)
            or bits < MIN_PRECISION_BITS):
        raise ValueError("%s must be an integer >= %d, got %r"
                         % (what, MIN_PRECISION_BITS, bits))
    return bits


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
    man, exp = int(man), int(exp)
    fr = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
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
        t = self.turns
        if not (isinstance(t, Fraction) and 0 <= t < 1):
            t = Fraction(t)
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


def _mpi_int(n: int, prec: int):
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def turn_cos_sin_mpi(t: Rational, prec: int):
    """libmp intervals of cos and sin of 2*pi*t at `prec` bits.  Theta is
    formed by the libmp calls `2 * iv.pi * to_interval(t)` makes, in its
    order, so its endpoints are the same, without the operators' wrapping
    and conversion; one `mpi_cos_sin` then gives both halves, as `iv.cos`
    and `iv.sin` each would."""
    turn = _mpi_int(t.numerator, prec)
    if isinstance(t, Fraction):
        turn = mpi_div(turn, _mpi_int(t.denominator, prec), prec)
    theta = mpi_mul(mpi_mul(_mpi_int(2, prec), mpi_pi(prec), prec), turn,
                    prec)
    return mpi_cos_sin(theta, prec)


def turn_sin_cos(t: Rational):
    """Interval sin/cos of an exact fraction of a full turn, at the current
    precision, with the endpoints of `turn_cos_sin_mpi`."""
    cos_t, sin_t = turn_cos_sin_mpi(t, iv.prec)
    return iv.make_mpf(sin_t), iv.make_mpf(cos_t)


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

    def __getitem__(self, key) -> "BoxArray":
        return BoxArray(self.lo[key], self.hi[key])

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


@lru_cache(maxsize=None)
def _pow10(k: int) -> int:
    return 10 ** k


def _over_pow10(num: int, den: int, q: int) -> tuple[int, int]:
    """num / (den * 10**q) as a ratio of integers."""
    return (num * _pow10(-q), den) if q < 0 else (num, den * _pow10(q))


def _ilog10(num: int, den: int) -> int:
    """floor(log10(num / den)) for positive integers num and den."""
    e = math.floor(math.log10(num) - math.log10(den))  # within 1 of it
    a, b = _over_pow10(num, den, e)
    if a < b:
        return e - 1
    a, b = _over_pow10(num, den, e + 1)
    return e + 1 if a >= b else e


def _decimal_text(n: int, q: int, digits: int) -> str:
    """n * 10**q as a literal `Fraction(str)` parses: fixed point when the
    leading digit's place lies in (-5, digits) and no zero need be padded
    before the point, else scientific; trailing zeros are dropped."""
    if not n:
        return "0"
    s = str(abs(n)).rstrip("0")
    q += len(str(abs(n))) - len(s)
    lead = len(s) - 1 + q
    if -5 < lead < digits and q <= 0:
        body = s.rjust(1 - q, "0")
        body = body[:q] + "." + body[q:] if q else body
    else:
        body = s[0] + ("." + s[1:] if s[1:] else "") + "e%+d" % lead
    return "-" * (n < 0) + body


def decimal_ball(mid: int, rad: int, den: int,
                 digits: int) -> tuple[str, str]:
    """The ball [(mid - rad)/den, (mid + rad)/den], den > 0, as decimal
    (coefficient, radius) strings, in integer arithmetic.

    The coefficient c is mid/den rounded to at most `digits` significant
    digits and to a last place whose unit u is at least 2*rad/den, so
    |c - mid/den| + rad/den <= u: every printed digit is proved.  A ball
    that contains 0, or whose leading digit is not proved, prints 0.  The
    radius is |c - mid/den| + rad/den rounded up to three significant
    digits, so c +- radius encloses the ball."""
    # with den a power of two, first drop the bits of mid that `digits`
    # cannot show, rounding the ball outward
    drop = min(den.bit_length() - 1, abs(mid).bit_length() - 4 * digits - 64)
    if drop > 0 and not den & (den - 1):
        low = mid & ((1 << drop) - 1)
        mid, den = mid >> drop, den >> drop
        rad = (low + rad + (1 << drop) - 1) >> drop
    if abs(mid) <= rad:
        n = q = 0
    else:
        q = _ilog10(abs(mid), den) - digits + 1
        a, b = _over_pow10(2 * rad, den, q)
        if a > b:  # the least q with 10**q >= 2*rad/den
            q = _ilog10(2 * rad, den)
            a, b = _over_pow10(2 * rad, den, q)
            q += a > b
        a, b = _over_pow10(mid, den, q)
        n, rest = divmod(a, b)
        n += 2 * rest > b or (2 * rest == b and n % 2)  # nearest, ties even
    # err = |n * 10**q - mid/den| + rad/den as err_num / err_den
    a, b = _over_pow10(n, 1, -q)
    err_num, err_den = abs(a * den - mid * b) + rad * b, b * den
    if not err_num:
        return _decimal_text(n, q, digits), "0"
    r_q = _ilog10(err_num, err_den) - 2
    a, b = _over_pow10(err_num, err_den, r_q)
    return _decimal_text(n, q, digits), _decimal_text(-(-a // b), r_q, 3)
