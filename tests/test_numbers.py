"""Exact endpoints of mpmath intervals, the sine and cosine of a turn and
of half a sector, the float64 bounds of a rational, and turns reduced to
[0, 1)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv

from reebforge.numbers import (BOUND_BITS, TurnAngle, _libmp_to_fraction,
                               cos_half_sector_bounds, dyadic_ceil,
                               dyadic_floor, float_bounds, interval_inf,
                               interval_precision, interval_sup,
                               ratio_bounds, sin_half_sector_bounds,
                               to_interval, turn_sin_cos)
from reebforge.poly import FloatConsts


def product_fraction(t) -> Fraction:
    """An endpoint (sign, man, exp, bc) read as man * 2**exp in Fraction
    arithmetic: the reference for the shifted integers."""
    sign, man, exp, _ = t
    fr = Fraction(int(man)) * (Fraction(2) ** int(exp))
    return -fr if sign else fr


# arguments of sin, cos and sqrt (of its size): zero, negative and exact
# results, ends far below 1 and squares whose roots have exp >= 0
ARGUMENTS = [0, 1, 2, -3, Fraction(1, 3), Fraction(-7, 5), Fraction(1, 10 ** 9),
             2 ** 40, 10 ** 12 + 1, Fraction(3, 2) ** 200]


class TestEndpointFractions:
    @pytest.mark.parametrize("bits", [16, 64, 192])
    def test_equals_the_power_of_two_product(self, bits):
        ends = []
        with interval_precision(bits):
            for x in ARGUMENTS:
                theta = to_interval(Fraction(x))
                for value in (iv.sin(theta), iv.cos(theta),
                              iv.sqrt(to_interval(abs(Fraction(x))))):
                    ends.extend(value._mpi_)
        for end in ends:
            assert _libmp_to_fraction(end) == product_fraction(end), end
        # every branch is met: zero, negative, exp < 0 and exp >= 0
        values = [product_fraction(end) for end in ends]
        assert 0 in values and min(values) < 0
        assert any(end[2] < 0 and end[1] for end in ends)
        assert any(end[2] > 0 and end[1] for end in ends)


# turns on and between the quadrant walls, past them, the bisectors of a
# 64- and a 1000-sector cycle, an int and a turn of a 200-bit denominator
TURNS = ([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
          Fraction(-1, 6), Fraction(5, 3), Fraction(1, 7), 3]
         + [Fraction(2 * j + 1, 128) for j in range(64)]
         + [Fraction(2 * j + 1, 2000) for j in range(1000)]
         + [Fraction(random.Random(200).getrandbits(199), 2 ** 200 - 1)])


class TestTurnSinCos:
    @pytest.mark.parametrize("bits", [16, 53, 64, 128, 192])
    def test_ends_equal_iv_sin_and_iv_cos(self, bits):
        with interval_precision(bits):
            for turn in TURNS:
                theta = 2 * iv.pi * to_interval(turn)
                sin_t, cos_t = turn_sin_cos(turn)
                assert sin_t._mpi_ == iv.sin(theta)._mpi_, turn
                assert cos_t._mpi_ == iv.cos(theta)._mpi_, turn

    def test_float_midpoints_equal_the_fraction_midpoints(self):
        for turn in TURNS:
            with interval_precision(BOUND_BITS):
                sin_t, cos_t = turn_sin_cos(turn)
            assert FloatConsts.turn_cos_sin(turn) == tuple(
                float((interval_inf(v) + interval_sup(v)) / 2)
                for v in (cos_t, sin_t)), turn

    def test_quadrant_walls_clamp_to_one(self):
        with interval_precision(64):
            sin_quarter, _ = turn_sin_cos(Fraction(1, 4))
            _, cos_half = turn_sin_cos(Fraction(1, 2))
        assert sin_quarter.b == 1 and cos_half.a == -1


class TestTurnAngle:
    @pytest.mark.parametrize("turn,reduced", [
        (0, Fraction(0)), (3, Fraction(0)), (-2, Fraction(0)),
        (Fraction(-1, 6), Fraction(5, 6)), (Fraction(5, 3), Fraction(2, 3)),
        (Fraction(1), Fraction(0)), (Fraction(7, 4), Fraction(3, 4)),
        (Fraction(-9, 4), Fraction(3, 4)), (Fraction(2, 7), Fraction(2, 7))])
    def test_reduces_into_one_turn(self, turn, reduced):
        angle = TurnAngle(turn)
        assert type(angle.turns) is Fraction
        assert angle.turns == reduced

    def test_keeps_a_turn_already_reduced(self):
        turn = Fraction(3, 8)
        assert TurnAngle(turn).turns is turn


def is_double(x: Fraction) -> bool:
    """Whether x is a finite float64: |x| = odd * 2**e with odd < 2**53,
    e >= -1074 and |x| < 2**1024."""
    if x == 0:
        return True
    num, den = abs(x.numerator), x.denominator
    if den & (den - 1):
        return False
    e = -(den.bit_length() - 1)
    while not num & 1:
        num, e = num >> 1, e + 1
    return num < 1 << 53 and e >= -1074 and num.bit_length() + e <= 1024


DOUBLE_MAX = Fraction(2 ** 1024 - 2 ** 971)
# the least magnitude that rounds to nearest past DOUBLE_MAX, a tie
ROUNDS_PAST = DOUBLE_MAX + Fraction(2 ** 970)

RATIONALS = (
    st.builds(Fraction, st.integers(-(1 << 3000), 1 << 3000),
              st.integers(1, 1 << 3000))
    # the subnormal range and just above it, and doubles themselves
    | st.builds(lambda n, e: Fraction(n, 1 << e),
                st.integers(-(1 << 60), 1 << 60), st.integers(1000, 1140))
    | st.floats(allow_nan=False, allow_infinity=False).map(Fraction))


class TestRatioBounds:
    """`ratio_bounds` (and `float_bounds`, which reads it) bound a rational
    by the two neighbours of its nearest double, or by that double alone
    when it is the rational itself."""

    @settings(max_examples=500, deadline=None)
    @given(RATIONALS)
    @example(Fraction(1, 3))
    @example(Fraction(-1, 1 << 1200))              # rounds to -0.0
    @example(Fraction(3, 1 << 1076))               # halfway, subnormal
    @example(DOUBLE_MAX + Fraction(2 ** 969))      # rounds to the largest
    def test_encloses_by_the_nearest_double(self, x):
        if abs(x) >= ROUNDS_PAST:
            with pytest.raises(OverflowError):
                ratio_bounds(x.numerator, x.denominator)
            return
        lo, hi = ratio_bounds(x.numerator, x.denominator)
        assert (lo, hi) == float_bounds(x)
        assert type(lo) is float and type(hi) is float
        assert Fraction(lo) <= x
        assert math.isinf(hi) or x <= Fraction(hi)
        assert (lo == hi) == is_double(x)
        if is_double(x):
            assert Fraction(lo) == x
            return
        mid = math.nextafter(lo, math.inf)
        assert hi == math.nextafter(mid, math.inf)
        gap = abs(x - Fraction(mid))
        assert gap <= x - Fraction(lo)
        assert math.isinf(hi) or gap <= Fraction(hi) - x

    @pytest.mark.parametrize("x", [
        Fraction(2 ** 1024), -Fraction(2 ** 1024) - Fraction(1, 3),
        ROUNDS_PAST, -ROUNDS_PAST, Fraction(3, 1) ** 700])
    def test_past_the_doubles_overflows(self, x):
        with pytest.raises(OverflowError):
            ratio_bounds(x.numerator, x.denominator)


def iv_half_sector_bounds(k: int):
    """The dyadic (cos, sin) bounds of pi/k by `iv.cos(iv.pi / k)` and
    `iv.sin(iv.pi / k)` at BOUND_BITS + 32 bits, as they were made before
    both came from one enclosure of the turn 1/(2k)."""
    with interval_precision(BOUND_BITS + 32):
        ends = [(interval_inf(v), interval_sup(v))
                for v in (iv.cos(iv.pi / k), iv.sin(iv.pi / k))]
    return tuple((dyadic_floor(lo, BOUND_BITS), dyadic_ceil(hi, BOUND_BITS))
                 for lo, hi in ends)


class TestHalfSectorBounds:
    def test_equal_the_iv_route(self):
        ks = list(range(3, 2001)) + random.Random(10000).sample(
            range(2001, 10001), 200)
        for k in ks:
            assert (cos_half_sector_bounds(k), sin_half_sector_bounds(k)) \
                == iv_half_sector_bounds(k), k

    @pytest.mark.parametrize("k", [-1, 0, 1, 2])
    def test_fewer_than_three_sectors_refused(self, k):
        with pytest.raises(ValueError):
            sin_half_sector_bounds(k)
