"""Exact endpoints of mpmath intervals, and the sine and cosine of a turn."""

from fractions import Fraction

import pytest
from mpmath import iv

from reebforge.numbers import (_libmp_to_fraction, interval_precision,
                               to_interval, turn_sin_cos)


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


# turns on and between the quadrant walls, and the 64 bisectors of a
# 64-sector cycle
TURNS = ([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
          Fraction(-1, 6), Fraction(1, 7)]
         + [Fraction(2 * j + 1, 128) for j in range(64)])


class TestTurnSinCos:
    @pytest.mark.parametrize("bits", [16, 64, 128, 192])
    def test_ends_equal_iv_sin_and_iv_cos(self, bits):
        with interval_precision(bits):
            for turn in TURNS:
                theta = 2 * iv.pi * to_interval(turn)
                sin_t, cos_t = turn_sin_cos(turn)
                assert sin_t._mpi_ == iv.sin(theta)._mpi_, turn
                assert cos_t._mpi_ == iv.cos(theta)._mpi_, turn

    def test_quadrant_walls_clamp_to_one(self):
        with interval_precision(64):
            sin_quarter, _ = turn_sin_cos(Fraction(1, 4))
            _, cos_half = turn_sin_cos(Fraction(1, 2))
        assert sin_quarter.b == 1 and cos_half.a == -1
