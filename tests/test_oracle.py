"""Sampled region oracle, graph smoothing, membership spot checks."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from reebforge import (brute_oracle_reeb, build_arrangement, evaluate_floats,
                       membership_check, results_match, smooth_degree_two,
                       sweep_reeb, synthesize, validated)
from reebforge import oracle
from reebforge.errors import ResolutionTooCoarse
from reebforge.layout import tangency_events
from reebforge.numbers import format_rational, sin_half_sector_bounds
from reebforge.oracle import (MEMBERSHIP_GUARD, _circle_slices, _halton_axis,
                              _line_slices, _membership_screen,
                              _radical_inverses, _read_graph, _sample_box,
                              _slice_doubles)
from reebforge.poly import FloatConsts, _factor_value
from reebforge.sweep import ReebEdge, ReebGraphResult, ReebVertex
from conftest import HANDLE_CORPUS, LINE_CORPUS, NAMED_CORPUS, circle_spec, \
    hand_built, line_spec


# a 64-vertex cycle, half of multiplicity 2 and half of 3, in a fixed
# shuffled order
WIDE_CYCLE = tuple(random.Random(64).sample([2] * 32 + [3] * 32, 64))
# the ROADMAP ladder's cycles, in the same way
CYCLE_128 = tuple(random.Random(128).sample([2] * 64 + [3] * 64, 128))
CYCLE_200 = tuple(random.Random(200).sample([2] * 100 + [3] * 100, 200))


def tampered(model, grow=3):
    """Scale every removed disk in the polynomial without moving the
    arrangement, so the factor product and the geometry disagree."""
    stage0 = model.polynomial.stages[0]
    factors = tuple(
        dataclasses.replace(f, scale=f.scale * grow)
        if f.kind == "circle" and f.scale is not None else f
        for f in stage0.factors)
    poly = dataclasses.replace(
        model.polynomial,
        stages=(dataclasses.replace(stage0, factors=factors),)
        + model.polynomial.stages[1:])
    return dataclasses.replace(model, polynomial=poly)


class TestBruteOracle:
    @pytest.mark.parametrize("name,spec",
                             NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS)
    def test_agrees_with_sweep(self, name, spec, corpus_models):
        model = corpus_models[name]
        swept = smooth_degree_two(
            sweep_reeb(model.arrangement, model.spec.dimension))
        sampled = brute_oracle_reeb(model.arrangement, 512, 256)
        assert results_match(swept, sampled)

    @pytest.mark.parametrize("mults,resolution", [
        ((3, 1, 2, 1), (512, 256)),
        ((2, 3, 4, 2, 3), (512, 256)),
        ((4, 4, 4), (512, 256)),
        ((6, 1, 6), (2048, 512)),
        (WIDE_CYCLE, (512, 256)),
        ((60, 60, 60), (512, 256)),
        ((100, 100, 100), (512, 256)),
        (CYCLE_128, (512, 256)),
        (CYCLE_200, (512, 256)),
    ], ids=["3121", "23423", "444", "616", "wide64", "60-60-60",
            "100-100-100", "cycle128", "cycle200"])
    def test_agrees_with_sweep_beyond_corpus(self, mults, resolution):
        arr = build_arrangement(validated(circle_spec(mults)))
        swept = smooth_degree_two(sweep_reeb(arr, 2))
        assert results_match(swept, brute_oracle_reeb(arr, *resolution))

    def test_sampled_graph_reports_no_angles(self):
        arr = build_arrangement(validated(circle_spec((2, 2, 1))))
        sampled = brute_oracle_reeb(arr, 512, 256)
        assert len(sampled.vertices) == 3
        assert sorted(v.degree for v in sampled.vertices) == [3, 3, 4]


CORPUS = NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS


class TestOnePass:
    """The sample lemma of the module docstring: one pass reads the graph
    at any grid, and a wrong arrangement reads as a different one."""

    @pytest.mark.parametrize("grid", [(4, 4), (8, 8), (16, 16), (32, 32),
                                      (64, 64), (128, 64)],
                             ids=lambda g: "%dx%d" % g)
    @pytest.mark.parametrize("name,spec", CORPUS,
                             ids=[name for name, _ in CORPUS])
    def test_coarse_grids_match(self, name, spec, grid, corpus_models):
        model = corpus_models[name]
        swept = smooth_degree_two(
            sweep_reeb(model.arrangement, model.spec.dimension))
        assert results_match(swept,
                             brute_oracle_reeb(model.arrangement, *grid))

    @pytest.mark.parametrize("name", [name for name, _ in CORPUS
                                      if name != "k=0"])
    def test_a_dropped_circle_disagrees(self, name, corpus_models):
        model = corpus_models[name]
        arr = model.arrangement
        swept = smooth_degree_two(sweep_reeb(arr, model.spec.dimension))
        drop = arr.circles.index(arr.removed_circles()[0])
        wrong = dataclasses.replace(
            arr, circles=arr.circles[:drop] + arr.circles[drop + 1:])
        assert not results_match(swept, brute_oracle_reeb(wrong))

    @pytest.mark.parametrize("mults", [(3, 1, 2, 1), (2, 2, 2),
                                       (4, 1, 3, 1, 2)])
    def test_a_circle_in_the_next_sector_disagrees(self, mults):
        arr = build_arrangement(validated(circle_spec(mults)))
        swept = smooth_degree_two(sweep_reeb(arr, 2))
        moved = arr.removed_circles()[0]
        at = arr.circles.index(moved)
        wrong = dataclasses.replace(arr, circles=(
            arr.circles[:at]
            + (dataclasses.replace(moved, sector=moved.sector % arr.k + 1),)
            + arr.circles[at + 1:]))
        assert not results_match(swept, brute_oracle_reeb(wrong))


class TestSmoothing:
    def test_keeps_true_saddles(self):
        arr = build_arrangement(validated(circle_spec((2, 2, 2))))
        res = sweep_reeb(arr, 2)
        assert smooth_degree_two(res) is res

    def test_drops_handle_only_vertices(self):
        v = validated(circle_spec((1, 1, 2), dimension=5,
                                  handles=(((2, 1), (1, 1)),)))
        res = sweep_reeb(build_arrangement(v), 5)
        assert [x.degree for x in res.vertices] == [3, 3, 2]
        sm = smooth_degree_two(res)
        assert [x.degree for x in sm.vertices] == [3, 3]
        assert len(sm.edges) == len(res.edges) - 1

    def test_concatenated_edge_keeps_fiber_words(self):
        v = validated(circle_spec((1, 1, 2), dimension=5,
                                  handles=(((2, 1), (1, 1)),)))
        sm = smooth_degree_two(sweep_reeb(build_arrangement(v), 5))
        assert "S^1 x S^3 # S^2 x S^2" in {e.fiber for e in sm.edges}

    def test_all_vertices_smoothable_gives_plain_circle(self):
        v = validated(circle_spec((1, 1, 1), dimension=3,
                                  handles=(((1, 1), (1,)), ((2, 1), (1,)),
                                           ((3, 1), (1,)))))
        sm = smooth_degree_two(sweep_reeb(build_arrangement(v), 3))
        assert sm.no_vertex_circle
        assert sm.vertices == ()

    def test_line_folds_are_not_smoothable(self):
        loop = ReebGraphResult(
            no_vertex_circle=False,
            vertices=(ReebVertex(left_channels=1, right_channels=1,
                                 angle=None, abscissa=Fraction(0)),),
            edges=(ReebEdge(channel=(1, 1), source=0, target=0,
                            fiber="S^1"),),
            mode="line")
        with pytest.raises(ValueError):
            smooth_degree_two(loop)


class TestResultsMatch:
    def test_reflexive(self):
        arr = build_arrangement(validated(circle_spec((2, 1, 2))))
        res = sweep_reeb(arr, 2)
        assert results_match(res, res)

    def test_accepts_rotated_listing(self):
        a = sweep_reeb(build_arrangement(validated(circle_spec((2, 2, 1)))), 2)
        b = sweep_reeb(build_arrangement(validated(circle_spec((2, 1, 2)))), 2)
        assert results_match(a, b)

    def test_accepts_reflected_listing(self):
        a = sweep_reeb(build_arrangement(
            validated(circle_spec((1, 2, 3, 2)))), 2)
        b = sweep_reeb(build_arrangement(
            validated(circle_spec((2, 3, 2, 1)))), 2)
        assert results_match(a, b)

    def test_detects_different_multiplicities(self):
        a = sweep_reeb(build_arrangement(validated(circle_spec((2, 2, 2)))), 2)
        b = sweep_reeb(build_arrangement(validated(circle_spec((2, 2, 1)))), 2)
        assert not results_match(a, b)

    def test_detects_vertex_count(self):
        a = sweep_reeb(build_arrangement(validated(circle_spec((2, 2, 2)))), 2)
        b = sweep_reeb(build_arrangement(
            validated(circle_spec((2, 2, 2, 2)))), 2)
        assert not results_match(a, b)

    def test_detects_mode(self):
        a = sweep_reeb(build_arrangement(validated(circle_spec((2, 2, 2)))), 2)
        b = sweep_reeb(build_arrangement(validated(line_spec((1, 2, 1)))), 2)
        assert not results_match(a, b)

    def test_detects_missing_circle(self):
        torus = sweep_reeb(build_arrangement(validated(
            circle_spec(()), )), 2)
        a = sweep_reeb(build_arrangement(validated(circle_spec((2, 2, 2)))), 2)
        assert not results_match(torus, a)


class TestMembership:
    @pytest.mark.parametrize("name,spec",
                             NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS)
    def test_corpus_clean(self, name, spec, corpus_models):
        report = membership_check(corpus_models[name], count=4000)
        assert report.ok
        assert report.mismatches == ()
        assert 0 < report.inside < report.count

    def test_tampered_polynomial_caught(self):
        model = synthesize(validated(circle_spec((2, 2, 2))))
        report = membership_check(tampered(model), count=4000)
        assert not report.ok
        assert len(report.mismatches) > 100
        sample = report.mismatches[0]
        assert set(sample) == {"point", "sign_positive", "inside_region"}
        assert sample["sign_positive"] != sample["inside_region"]
        # every reported point is an exact point of the sample
        half_x, half_y = _sample_box(model.arrangement)
        xs = exact_coordinates(half_x, exact_radical_inverses(2, 4000, 0))
        ys = exact_coordinates(half_y, exact_radical_inverses(3, 4000, 0))
        points = set(zip(map(format_rational, xs), map(format_rational, ys)))
        assert all(tuple(m["point"]) in points for m in report.mismatches)

    def test_report_json_shape(self):
        model = synthesize(validated(circle_spec((2, 2, 1))))
        blob = membership_check(model, count=2000).to_json()
        assert blob["points"] == 2000
        assert blob["mismatches"] == []
        assert set(blob) == {"points", "inside", "boundary_band",
                             "suspects_resolved_exactly", "band",
                             "mismatches"}

    def test_deterministic_for_a_seed(self):
        model = synthesize(validated(circle_spec((2, 1, 2))))
        a = membership_check(model, count=2000, seed=5).to_json()
        b = membership_check(model, count=2000, seed=5).to_json()
        assert a == b

    def test_seed_shifts_the_sample(self):
        model = synthesize(validated(circle_spec((2, 1, 2))))
        a = membership_check(model, count=2000, seed=0)
        b = membership_check(model, count=2000, seed=1)
        assert a.ok and b.ok
        assert a.inside != b.inside


def exact_radical_inverses(base, count, seed):
    """The radical inverses of the membership sample as exact Fractions,
    one index at a time: the reference for the vectorised digit arrays."""
    def radical_inverse(index):
        num, denom = 0, 1
        while index:
            index, digit = divmod(index, base)
            num = num * base + digit
            denom *= base
        return Fraction(num, denom)
    start = seed * count
    return [radical_inverse(start + i + 1) for i in range(count)]


def digit_by_digit_inverses(indices, base):
    """num and den of the radical inverses, one numpy pass per digit: the
    reference for the table-driven chunks."""
    rest = np.asarray(indices, dtype=np.int64)
    num = np.zeros_like(rest)
    den = np.ones_like(rest)
    live = rest > 0
    while live.any():
        rest, digit = np.divmod(rest, base)
        num = np.where(live, num * base + digit, num)
        den = np.where(live, den * base, den)
        live = rest > 0
    return num, den


def exact_coordinates(half, inverses):
    return [2 * half * r - half for r in inverses]


class TestRadicalInverse:
    def test_base_two_bit_reversal(self):
        num, den = _radical_inverses(np.arange(1, 8), 2)
        got = [Fraction(int(n), int(d)) for n, d in zip(num, den)]
        assert got == [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
                       Fraction(1, 8), Fraction(5, 8), Fraction(3, 8),
                       Fraction(7, 8)]

    def test_base_three(self):
        num, den = _radical_inverses(np.arange(1, 5), 3)
        assert num.tolist() == [1, 2, 1, 4]
        assert den.tolist() == [3, 3, 9, 9]

    def test_values_stay_in_the_unit_interval(self):
        num, den = _radical_inverses(np.arange(1, 200), 2)
        assert np.all(0 < num) and np.all(num < den)

    @pytest.mark.parametrize("indices", [
        # the last sample `check_membership_sample` admits: count 2**20,
        # seed 2**33 - 1, ending at index 2**53
        np.arange((2 ** 33 - 1) * 2 ** 20 + 1, 2 ** 53 + 1, dtype=np.int64),
        np.arange(5 * 100000 + 1, 6 * 100000 + 1, dtype=np.int64),
        np.arange(-40, 1, dtype=np.int64),
    ], ids=["ends-at-2to53", "seed-5", "non-positive"])
    @pytest.mark.parametrize("base", [2, 3])
    def test_equals_the_digit_by_digit_loop(self, indices, base):
        num, den = _radical_inverses(indices, base)
        want_num, want_den = digit_by_digit_inverses(indices, base)
        assert num.dtype == den.dtype == np.int64
        assert np.array_equal(num, want_num)
        assert np.array_equal(den, want_den)


# the last is the (60,60,60) sample box's, a 228-bit denominator
HALF_EXTENTS = [Fraction(27, 16), Fraction(1207959543, 536870912),
                Fraction(2 ** 71 + 1, 2 ** 70 + 3),
                Fraction("485279040008711516304006271566353352125468599605730"
                         "304659864984485879/2156795733372051183573361206961"
                         "57045389097155380324579848828881993728")]


class TestHaltonSample:
    @pytest.mark.parametrize("count,seed", [(20000, 0), (20000, 5),
                                            (100000, 0), (100000, 5)])
    @pytest.mark.parametrize("base", [2, 3])
    def test_matches_the_exact_path(self, base, count, seed):
        # the last two take the int path, the first two the double one
        assert HALF_EXTENTS[2].denominator.bit_length() >= 70
        inverses = exact_radical_inverses(base, count, seed)
        indices = np.arange(seed * count + 1, (seed + 1) * count + 1)
        for half in HALF_EXTENTS:
            exact = exact_coordinates(half, inverses)
            floats, num, den = _halton_axis(indices, base, half)
            assert floats.tobytes() == np.array(
                [float(v) for v in exact]).tobytes(), half
            for i in range(0, count, 97):
                assert half * Fraction(2 * int(num[i]) - int(den[i]),
                                       int(den[i])) == exact[i]


def sample(model, count):
    """The membership sample's float coordinates and the screen's extent."""
    half_x, half_y = _sample_box(model.arrangement)
    indices = np.arange(1, count + 1)
    return (_halton_axis(indices, 2, half_x)[0],
            _halton_axis(indices, 3, half_y)[0],
            float(max(1, half_x, half_y)))


def dense_values(model, x, y):
    """Every factor on every point, as the screen did before it windowed
    the disks: one row per factor."""
    poly = model.polynomial
    planar = [x, y] + [0.0] * (poly.num_vars - 2)
    return np.stack([_factor_value(f, planar, FloatConsts())
                     for stage in poly.stages for f in stage.factors])


def dense_screen(model, x, y):
    """Rows member, small and suspect from the dense factor values, with
    sign(P) read from the float product `evaluate_floats`."""
    poly = model.polynomial
    values = dense_values(model, x, y)
    member = np.all(values > 0.0, axis=0)
    small = np.min(np.abs(values), axis=0) < MEMBERSHIP_GUARD
    points = np.zeros((poly.num_vars, len(x)))
    points[0], points[1] = x, y
    positive = evaluate_floats(poly, points) > 0.0
    return np.stack([member, small, small | (positive != member)])


SCREEN_CASES = [name for name, _ in NAMED_CORPUS + HANDLE_CORPUS
                + LINE_CORPUS] + ["wide", "deep-m9", "deep-m13"]


class TestWindowedScreen:
    @pytest.mark.parametrize("name", SCREEN_CASES)
    def test_equals_the_dense_screen(self, name, corpus_models,
                                     benchmark_models):
        model = {**corpus_models, **benchmark_models}[name]
        x, y, extent = sample(model, 4000)
        windowed = _membership_screen(model.polynomial, extent, x, y)
        dense = dense_screen(model, x, y)
        assert windowed.shape == dense.shape == (3, 4000)
        assert np.array_equal(windowed, dense)
        assert np.array_equal(np.flatnonzero(windowed[2]),
                              np.flatnonzero(dense[2]))

    def test_a_window_one_point_too_narrow_is_caught(self, monkeypatch,
                                                     corpus_models):
        model = corpus_models["(2,2,2)"]
        x, y, extent = sample(model, 4000)
        # the first removed disk, and its points in x order
        first = 2
        inside = dense_values(model, x, y)[first] < 0.0
        held = np.sort(x[inside])
        assert len(held) > 10
        disk_window = oracle._disk_window
        calls = []

        def planted(f, extent):
            calls.append(f)
            if len(calls) == first + 1:
                return held[0], held[-1]
            return disk_window(f, extent)

        monkeypatch.setattr(oracle, "_disk_window", planted)
        windowed = _membership_screen(model.polynomial, extent, x, y)
        dense = dense_screen(model, x, y)
        assert calls[first].kind == "circle"
        assert np.flatnonzero((windowed != dense).any(axis=0)).tolist() == (
            np.flatnonzero(x == held[-1]).tolist())

    def test_deep_chain_has_no_suspects(self):
        model = synthesize(validated(circle_spec((60, 60, 60))))
        assert _sample_box(model.arrangement)[0] == HALF_EXTENTS[3]
        report = membership_check(model, count=20000)
        x, y, _ = sample(model, 20000)
        assert report.ok
        assert report.suspects == 0
        assert report.inside == np.count_nonzero(
            np.all(dense_values(model, x, y) > 0.0, axis=0))


def sorted_fraction_slices(tangency_turns, angular_res):
    """The slice turns as a sorted set of Fractions, one comparison at a
    time: the reference for the integer keys."""
    positions = {Fraction(2 * i + 1, 2 * angular_res)
                 for i in range(angular_res)}
    for turn in tangency_turns:
        for p in (10, 14, 18, 22, 26, 30):
            positions.add((turn + Fraction(1, 1 << p)) % 1)
            positions.add((turn - Fraction(1, 1 << p)) % 1)
    return sorted(positions)


class TestCircleSlices:
    @pytest.mark.parametrize("angular_res", [256, 1024])
    @pytest.mark.parametrize("name,spec", NAMED_CORPUS + HANDLE_CORPUS + [
        ("wide64", circle_spec(WIDE_CYCLE))],
        ids=[name for name, _ in NAMED_CORPUS + HANDLE_CORPUS] + ["wide64"])
    def test_equals_the_sorted_fractions(self, name, spec, angular_res):
        arr = build_arrangement(validated(spec))
        turns = {e.turn.turns for e in tangency_events(arr)}
        keys, den = _circle_slices(turns, angular_res)
        positions = [Fraction(key, den) for key in keys]
        assert positions == sorted_fraction_slices(turns, angular_res)
        assert _slice_doubles(keys, den).tolist() == [float(t) for t in
                                                      positions]


def sorted_fraction_abscissae(arr, horizontal_res):
    """The line slices as a sorted set of Fractions, one comparison at a
    time: the reference for the integer keys."""
    ax = arr.ellipse_axes[0]
    spacing = 2 * ax / arr.k
    positions = {-ax + (2 * i + 1) * ax / horizontal_res
                 for i in range(horizontal_res)}
    for wall in arr.abscissae:
        for p in (8, 14, 20, 26):
            for cand in (wall - spacing / (1 << p), wall + spacing / (1 << p)):
                if -ax < cand < ax:
                    positions.add(cand)
    return sorted(positions)


class TestLineSlices:
    @pytest.mark.parametrize("horizontal_res", [7, 256, 1024])
    @pytest.mark.parametrize("name,spec", LINE_CORPUS + [
        ("line (1,3,5,2,1)", line_spec((1, 3, 5, 2, 1)))],
        ids=[name for name, _ in LINE_CORPUS] + ["line (1,3,5,2,1)"])
    def test_equals_the_sorted_fractions(self, name, spec, horizontal_res):
        arr = build_arrangement(validated(spec))
        keys, den = _line_slices(arr, horizontal_res)
        positions = [Fraction(key, den) for key in keys]
        assert positions == sorted_fraction_abscissae(arr, horizontal_res)
        assert _slice_doubles(keys, den).tolist() == [float(x) for x in
                                                      positions]


def thin_gap(arr, sector):
    """arr with the second removed disk of a sector or strip moved next to
    the first, leaving a gap of a relative 2^-60: the disks stay disjoint,
    but the gap is thinner than doubles resolve, which the sample lemma
    excludes."""
    circles = list(arr.circles)
    first, second = [i for i, c in enumerate(circles)
                     if c.sector == sector and c.role.kind == "removed"][:2]
    near, far = circles[first], circles[second]
    if arr.mode == "circle":
        s_hi = sin_half_sector_bounds(arr.k)[1]
        d = near.d * (1 + s_hi) / (1 - s_hi) * (1 + Fraction(1, 2 ** 60))
        circles[second] = dataclasses.replace(far, d=d)
    else:
        y = (near.center[1] + near.radius + far.radius
             + Fraction(1, 2 ** 60))
        circles[second] = dataclasses.replace(far,
                                              center=(far.center[0], y))
    return dataclasses.replace(arr, circles=tuple(circles))


class TestFailureNames:
    # a uniform slice on the bisector (on the strip's middle) sees no gap
    # between the two disks, the slices either side do
    def test_circle_junction_names_sector_and_tangency(self):
        arr = thin_gap(build_arrangement(validated(circle_spec(
            (3, 1, 2, 1)))), 1)
        with pytest.raises(ResolutionTooCoarse,
                           match=r"^junction near turn 7/24 \(sector 1\) "
                                 r"matches no tangency; the nearest is at "
                                 r"turn 1/4 \(sector 1\) "
                                 r"\(oracle grid 64x12\)$"):
            brute_oracle_reeb(arr, 64, 12)

    def test_line_tangency_names_strip_walls(self, corpus_models):
        arr = thin_gap(corpus_models["line (1,3,2,1)"].arrangement, 2)
        with pytest.raises(ResolutionTooCoarse,
                           match=r"^junction near x = -5/12 \(strip 2, "
                                 r"between walls x = -1/2 and x = 0\) "
                                 r"matches no tangency; the nearest is at "
                                 r"x = -1/2 \(strip 2, between walls "
                                 r"x = -1/2 and x = 0\) "
                                 r"\(oracle grid 8x12\)$"):
            brute_oracle_reeb(arr, 8, 12)

    def test_detached_part_names_its_first_slice(self, corpus_models):
        arr = corpus_models["line (1,2,1)"].arrangement
        with pytest.raises(ResolutionTooCoarse,
                           match=r"^sampled region fell apart; a detached "
                                 r"part starts at x = 1/2 \(strip 3, between "
                                 r"walls x = 1/3 and x = 1\)$"):
            _read_graph(hand_built([Fraction(-1, 2), Fraction(0),
                                    Fraction(1, 2)],
                                   [[(0, 3)], [(0, 3)], [(6, 9)]], False),
                        [Fraction(-1), Fraction(1)], 0.1, arr)

    def test_stray_cycle_is_a_detached_part(self, corpus_models):
        # a closed column of regular runs beside a column with a junction;
        # every regular run lies on a chain from a junction unless it is
        # cut off like this, so the connectivity check names it
        arr = corpus_models["(2,2,2)"].arrangement
        column = [[(0, 5)], [(0, 1), (3, 5)], [(0, 5)], [(0, 5)]]
        runs = [own + [(10, 12)] for own in column]
        with pytest.raises(ResolutionTooCoarse,
                           match=r"^sampled region fell apart; a detached "
                                 r"part starts at turn 1/8 \(sector 0\)$"):
            _read_graph(hand_built(EIGHTHS, runs, True), THIRDS, 0.1, arr)

    def test_junction_without_tangencies_names_it(self, corpus_models):
        # a split column, read against an arrangement with no tangency
        arr = corpus_models["(2,2,2)"].arrangement
        runs = [[(0, 5)], [(0, 1), (3, 5)], [(0, 5)], [(0, 5)]]
        with pytest.raises(ResolutionTooCoarse,
                           match=r"^junction near turn 1/8 \(sector 0\) "
                                 r"matches no tangency; there is none$"):
            _read_graph(hand_built(EIGHTHS, runs, True), [], 0.1, arr)

    def test_missing_junctions_name_the_first_tangency(self, corpus_models):
        arr = corpus_models["(2,2,2)"].arrangement
        with pytest.raises(ResolutionTooCoarse,
                           match=r"^no junctions found despite tangencies; "
                                 r"the first is at turn 1/3 \(sector 1\)$"):
            _read_graph(hand_built(EIGHTHS, [[(0, 5)]] * 4, True),
                        THIRDS[1:], 0.1, arr)


EIGHTHS = [Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)]
THIRDS = [Fraction(0), Fraction(1, 3), Fraction(2, 3)]


def full_grid_circle_mask(arr, turns, radial_res):
    """The reference mask: every removed disk tested on every sample of
    the oracle's own radii, as the oracle did before it windowed the
    disks."""
    theta = turns * (2.0 * math.pi)
    radii = oracle._radial_samples(arr, radial_res)
    x = np.cos(theta)[:, None] * radii[None, :]
    y = np.sin(theta)[:, None] * radii[None, :]
    inside = np.ones(x.shape, dtype=bool)
    half_sector = math.pi / arr.k if arr.k else 0.0
    for c in arr.removed_circles():
        d = float(c.d)
        bis = 2.0 * math.pi * float(arr.bisector_turn(c.sector))
        cx, cy = d * math.cos(bis), d * math.sin(bis)
        rr = (d * math.sin(half_sector)) ** 2
        inside &= (x - cx) ** 2 + (y - cy) ** 2 > rr
    return inside


def full_grid_line_mask(arr, xs, vertical_res):
    ys = oracle._radial_samples(arr, vertical_res)
    fx, fy = map(float, arr.ellipse_axes)
    inside = ((xs[:, None] / fx) ** 2 + (ys[None, :] / fy) ** 2) < 1.0
    for c in arr.circles:
        cx, cy = float(c.center[0]), float(c.center[1])
        rr = float(c.radius) ** 2
        inside &= (xs[:, None] - cx) ** 2 + (ys[None, :] - cy) ** 2 > rr
    return inside


def oracle_mask(monkeypatch, arr, radial, angular):
    """The mask the oracle reads its runs from, and its rows' positions."""
    masks = []
    slice_runs = oracle._slice_runs

    def keep(inside):
        masks.append(inside.copy())
        return slice_runs(inside)

    monkeypatch.setattr(oracle, "_slice_runs", keep)
    if arr.mode == "circle":
        turns = {e.turn.turns for e in tangency_events(arr)}
        oracle._circle_complex(arr, radial, angular, turns)
        keys, den = _circle_slices(turns, angular)
    else:
        oracle._line_complex(arr, radial, angular)
        keys, den = _line_slices(arr, angular)
    return masks[0], np.array([float(Fraction(key, den)) for key in keys])


def full_grid_mask(arr, rows, radial):
    if arr.mode == "circle":
        return full_grid_circle_mask(arr, rows, radial)
    return full_grid_line_mask(arr, rows, radial)


MASK_CASES = NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS + [
    ("wide64", circle_spec(WIDE_CYCLE))]


class TestWindowedMask:
    @pytest.mark.parametrize("doublings", [0, 1, 2])
    @pytest.mark.parametrize("name,spec", MASK_CASES,
                             ids=[name for name, _ in MASK_CASES])
    def test_equals_the_full_grid(self, monkeypatch, name, spec, doublings):
        arr = build_arrangement(validated(spec))
        radial, angular = 512 << doublings, 256 << doublings
        windowed, rows = oracle_mask(monkeypatch, arr, radial, angular)
        assert np.array_equal(windowed, full_grid_mask(arr, rows, radial))

    def test_a_window_one_row_too_narrow_is_caught(self, monkeypatch):
        arr = build_arrangement(validated(circle_spec((2, 2, 2))))
        # the rows that hold samples of the first removed disk
        _, rows = oracle_mask(monkeypatch, arr, 512, 256)
        first = dataclasses.replace(arr, circles=arr.removed_circles()[:1])
        held = np.flatnonzero(~full_grid_mask(first, rows, 512).all(axis=1))
        assert np.all(np.diff(held) == 1)
        wedge_rows = oracle._wedge_rows
        calls = []

        def planted(turns, lo, hi):
            calls.append(lo)
            if len(calls) == 1:
                return ((int(held[0]), int(held[-1])),)
            return wedge_rows(turns, lo, hi)

        monkeypatch.setattr(oracle, "_wedge_rows", planted)
        windowed, _ = oracle_mask(monkeypatch, arr, 512, 256)
        full = full_grid_mask(arr, rows, 512)
        assert not np.array_equal(windowed, full)
        assert np.flatnonzero((windowed != full).any(axis=1)).tolist() == [
            held[-1]]
