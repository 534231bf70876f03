"""Exact endpoints of mpmath intervals, the sine and cosine of a turn,
and turns reduced to [0, 1)."""

import random
from fractions import Fraction

import pytest
from mpmath import iv

from reebforge.numbers import (BOUND_BITS, TurnAngle, _libmp_to_fraction,
                               interval_inf, interval_precision,
                               interval_sup, to_interval, turn_sin_cos)
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
