"""Angular sweep: graphs, tangency bookkeeping, fibers, Euler counts."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv

from reebforge import (CountMismatch, EulerMismatch, MissingSingularAngle,
                       build_arrangement, euler_check, fiber_counts_check,
                       path_isomorphic, reeb_isomorphic, sweep_reeb,
                       validated, verify_morse)
from reebforge.numbers import interval_inf, interval_precision, \
    interval_sup, turn_sin_cos
from reebforge.sweep import ReebGraphResult
from conftest import HANDLE_CORPUS, NAMED_CORPUS, circle_spec, line_spec, \
    torus_spec


def swept(spec):
    v = validated(spec)
    arr = build_arrangement(v)
    return v, arr, sweep_reeb(arr, v.dimension)


class TestCircleSweep:
    def test_balanced_three(self):
        v, arr, res = swept(circle_spec((2, 2, 2)))
        assert [str(x.angle.turns) for x in res.vertices] == \
            ["0", "1/3", "2/3"]
        assert [x.degree for x in res.vertices] == [4, 4, 4]
        assert res.cyclic_multiplicities() == (2, 2, 2)
        assert reeb_isomorphic(v, res)

    def test_unbalanced(self):
        v, arr, res = swept(circle_spec((2, 2, 1)))
        assert [x.degree for x in res.vertices] == [3, 3, 4]
        assert res.cyclic_multiplicities() == (1, 2, 2)
        assert reeb_isomorphic(v, res)

    def test_torus_has_no_vertices(self):
        v, arr, res = swept(torus_spec())
        assert res.no_vertex_circle
        assert res.vertices == ()
        assert reeb_isomorphic(v, res)

    def test_regular_fiber_is_a_circle(self):
        v, arr, res = swept(circle_spec((2, 1, 2)))
        assert {e.fiber for e in res.edges} == {"S^1"}

    @pytest.mark.parametrize("name,spec", NAMED_CORPUS + HANDLE_CORPUS)
    def test_corpus_isomorphic(self, name, spec):
        v, arr, res = swept(spec)
        assert reeb_isomorphic(v, res)


class TestLineSweep:
    def test_degrees_follow_adjacent_sums(self):
        v, arr, res = swept(line_spec((1, 2, 3, 1)))
        assert [x.degree for x in res.vertices] == [1, 3, 5, 4, 1]
        assert res.cyclic_multiplicities() == (1, 2, 3, 1, 0)
        assert path_isomorphic(v, res)

    def test_minimal_interval(self):
        v, arr, res = swept(line_spec((1,)))
        assert [x.degree for x in res.vertices] == [1, 1]
        assert path_isomorphic(v, res)

    def test_vertices_carry_abscissae(self):
        v, arr, res = swept(line_spec((1, 2, 1)))
        assert [x.abscissa for x in res.vertices] == \
            [Fraction(-1), Fraction(-1, 3), Fraction(1, 3), Fraction(1)]
        assert all(x.angle is None for x in res.vertices)


class TestVerifyMorse:
    def test_two_events_per_removed_circle(self):
        v = validated(circle_spec((3, 2, 2)))
        arr = build_arrangement(v)
        cert = verify_morse(arr)
        removed = sum(1 for c in arr.circles if c.role.kind == "removed")
        assert len(cert.events) == 2 * removed
        assert cert.saddle_count == 2 * sum(a - 1 for a in (3, 2, 2))
        assert cert.vertices_single_interval
        assert cert.folds_nondegenerate

    def test_every_vertex_angle_has_an_event(self):
        v = validated(circle_spec((2, 2, 2)))
        arr = build_arrangement(v)
        cert = verify_morse(arr)
        turns = {e.turn.turns for e in cert.events}
        assert turns == {Fraction(0), Fraction(1, 3), Fraction(2, 3)}

    def test_handle_events_counted_separately(self):
        v = validated(circle_spec((1, 1, 2), dimension=5,
                                  handles=(((2, 1), (1, 1)),)))
        cert = verify_morse(build_arrangement(v))
        assert cert.handle_event_count == 4
        assert cert.saddle_count == 2

    def test_missing_event_at_a_vertex_is_fatal(self):
        # dropping the rescue circles leaves the shared vertex of the two
        # unit edges without any tangency
        v = validated(circle_spec((1, 1, 2), dimension=5,
                                  handles=(((2, 1), (1, 1)),)))
        arr = build_arrangement(v)
        bare = dataclasses.replace(arr, circles=tuple(
            c for c in arr.circles if c.role.kind != "handle"))
        with pytest.raises(MissingSingularAngle) as exc:
            verify_morse(bare)
        assert exc.value.vertex_index == 2
        # the pass records the missing angle; only verify_morse raises
        assert len(sweep_reeb(bare, 5).vertices) == 2

    def test_line_events_sit_on_interior_walls(self):
        v = validated(line_spec((1, 3, 1)))
        cert = verify_morse(build_arrangement(v))
        # each strip circle is tangent to both of its walls
        assert cert.saddle_count == 4
        feet = {e.foot_lo for e in cert.events}
        assert feet == {Fraction(-1, 3), Fraction(1, 3)}


def _reference_crossing(dt, k, bits):
    """Interval decision of a ray at turn offset dt from the bisector of a
    circle tangent to both rays of a sector of k: the ray-line distance
    d*|sin(2 pi dt)| against the radius d*sin(pi/k), in front of the
    origin when cos(2 pi dt) > 0."""
    if abs(dt) == Fraction(1, 2 * k):
        return "tangent"
    with interval_precision(bits):
        sin_dt, cos_dt = turn_sin_cos(dt)
        s = iv.sin(iv.pi / k)
        mag = abs(sin_dt)
        if interval_sup(mag) < interval_inf(s) and interval_inf(cos_dt) > 0:
            return "hit"
        if interval_inf(mag) > interval_sup(s) or interval_sup(cos_dt) < 0:
            return "miss"
    raise AssertionError("reference undecided at dt=%s, k=%d" % (dt, k))


def _half_sector_rule(h):
    return "hit" if h == 0 else "tangent" if abs(h) == 1 else "miss"


class TestHalfSectorRule:
    # the sweep reads every crossing from the rule of the sweep module
    # docstring; an interval decision is the independent reference
    @pytest.mark.parametrize("bits", [16, 128])
    def test_every_offset_small_k(self, bits):
        for k in range(3, 41):
            for h in range(-k + 1, k + 1):
                assert _half_sector_rule(h) == _reference_crossing(
                    Fraction(h, 2 * k), k, bits), (k, h, bits)

    @pytest.mark.parametrize("bits", [16, 128])
    @pytest.mark.parametrize("k", [200, 2000, 10 ** 5])
    def test_key_offsets_large_k(self, k, bits):
        for h in (0, 1, -1, 2, -2, k // 2 + 1, k // 2 - 1, k):
            assert _half_sector_rule(h) == _reference_crossing(
                Fraction(h, 2 * k), k, bits), (k, h, bits)


class TestSweepAtScale:
    def test_600_vertex_cycle(self):
        mults = tuple(2 + j % 2 for j in range(600))
        v = validated(circle_spec(mults))
        cert = verify_morse(build_arrangement(v))
        assert reeb_isomorphic(v, cert.reeb_graph())
        assert cert.sector_channel_counts == mults


class TestEuler:
    def test_two_computations_agree(self):
        v = validated(circle_spec((2, 2, 1)))
        report = euler_check(build_arrangement(v), v)
        assert report.chi_from_saddles == report.chi_from_region == -4
        assert report.genus == 3

    def test_torus_baseline(self):
        v = validated(torus_spec())
        report = euler_check(build_arrangement(v), v)
        assert report.chi_from_saddles == report.chi_from_region == 0
        assert report.genus == 1

    def test_only_defined_for_surfaces(self):
        v = validated(circle_spec((2, 2, 2), dimension=5))
        with pytest.raises(ValueError):
            euler_check(build_arrangement(v), v)

    @pytest.mark.parametrize("spec", [circle_spec((3, 2, 2)),
                                      line_spec((1, 3, 2, 1))])
    def test_dropped_removed_circle_is_caught(self, spec):
        v = validated(spec)
        arr = build_arrangement(v)
        dropped = next(i for i, c in enumerate(arr.circles)
                       if c.role.kind == "removed")
        cut = dataclasses.replace(arr, circles=arr.circles[:dropped]
                      + arr.circles[dropped + 1:])
        with pytest.raises(EulerMismatch):
            verify_morse(cut).euler_report(v)


class TestFiberCounts:
    def test_staged_rows(self):
        v = validated(circle_spec((1, 1, 2), dimension=5,
                                  handles=(((2, 1), (1, 1)),)))
        table = fiber_counts_check(build_arrangement(v), v)
        by_key = {(r.sector, r.channel): r for r in table.rows}
        assert by_key[(2, 1)].counts == (1, 1)
        assert by_key[(2, 1)].word == "S^1 x S^3 # S^2 x S^2"
        assert by_key[(1, 1)].word == "S^4"
        assert by_key[(3, 2)].counts == (0, 0)

    def test_staged_edge_fiber(self):
        v = validated(circle_spec((1, 1, 2), dimension=5,
                                  handles=(((2, 1), (1, 1)),)))
        res = sweep_reeb(build_arrangement(v), 5)
        fibers = {e.fiber for e in res.edges}
        assert "S^1 x S^3 # S^2 x S^2" in fibers
        assert "S^4" in fibers

    def test_mismatched_spec_rejected(self):
        built = validated(circle_spec((1, 1, 2), dimension=5,
                                      handles=(((2, 1), (1, 1)),)))
        arr = build_arrangement(built)
        other = validated(circle_spec((1, 1, 2), dimension=5,
                                      handles=(((2, 1), (2, 1)),)))
        with pytest.raises(CountMismatch):
            fiber_counts_check(arr, other)

    def test_line_mode_unsupported(self):
        v = validated(line_spec((1, 2, 1)))
        arr = build_arrangement(v)
        with pytest.raises(ValueError):
            fiber_counts_check(arr, v)


class TestPrecision:
    def test_graph_independent_of_working_precision(self):
        coarse = swept(circle_spec((2, 1, 2), precision_bits=128))[2]
        fine = swept(circle_spec((2, 1, 2), precision_bits=512))[2]
        assert coarse.to_json() == fine.to_json()


class TestResultJson:
    def test_round_trip(self):
        for name, spec in NAMED_CORPUS:
            res = swept(spec)[2]
            assert ReebGraphResult.from_json(res.to_json()) == res

    def test_edge_shape(self):
        res = swept(circle_spec((2, 2, 2)))[2]
        blob = res.to_json()
        assert set(blob["edges"][0]) == {"channel", "from", "to", "fiber"}
        assert blob["vertices"][0]["angle"] == "0/1 of 2pi"


@st.composite
def sweepable_specs(draw):
    k = draw(st.integers(min_value=3, max_value=6))
    mults = [draw(st.integers(min_value=1, max_value=3)) for _ in range(k)]
    for j in range(k):
        # break cyclically adjacent unit pairs without creating new ones
        if mults[j] == 1 and mults[(j + 1) % k] == 1:
            mults[(j + 1) % k] = 2
    return circle_spec(tuple(mults))


class TestSweepProperties:
    @settings(max_examples=25, deadline=None)
    @given(sweepable_specs())
    def test_isomorphism_and_saddle_law(self, spec):
        v, arr, res = swept(spec)
        assert reeb_isomorphic(v, res)
        cert = verify_morse(arr)
        assert cert.saddle_count == \
            2 * sum(a - 1 for a in spec.multiplicities)
        assert len(cert.events) == cert.saddle_count
