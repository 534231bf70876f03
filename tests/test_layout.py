"""Arrangement construction, certified disjointness, tangency events."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from reebforge import (CircleArrangement, GraphSpec, MarginViolation,
                       PackingFailure, build_arrangement,
                       certify_disjointness, choose_annulus_halfwidth,
                       tangency_events, validated)
from reebforge.layout import (STAGGER_MAX, TangencyEvent, _far_pair_bound,
                              place_sector_chain)
from reebforge.numbers import TurnAngle, cos_half_sector_bounds
from conftest import HANDLE_CORPUS, LINE_CORPUS, NAMED_CORPUS, circle_spec, \
    line_spec, torus_spec


def build(spec):
    return build_arrangement(validated(spec))


class TestHalfwidth:
    def test_k0_is_half(self):
        assert choose_annulus_halfwidth(0, 0) == Fraction(1, 2)

    def test_power_of_two_denominator(self):
        for k, n in [(3, 2), (4, 2), (6, 3), (12, 5)]:
            a = choose_annulus_halfwidth(k, n)
            assert 0 < a < 1
            assert a.denominator & (a.denominator - 1) == 0

    def test_wider_sectors_allow_wider_annulus(self):
        # fewer sectors leave more room between the bounding rays
        assert choose_annulus_halfwidth(3, 2) >= choose_annulus_halfwidth(12, 2)

    @pytest.mark.parametrize("k", [3, 4, 5, 7, 12, 64, 1000])
    @pytest.mark.parametrize("n", [1, 2, 5, 14, 60])
    def test_derived_halfwidth_passes_the_margins(self, k, n):
        # the annulus lemma of the layout docstring: a chain of any count
        # up to n, at either end of the stagger, fits the derived annulus
        a = choose_annulus_halfwidth(k, n)
        for count in sorted({1, (n + 1) // 2, n}):
            for phase in (1, STAGGER_MAX):
                chain = place_sector_chain(1, count, a, k, phase=phase,
                                           n_max=n)
                assert len(chain) == count


class TestCircleArrangement:
    def test_removed_count(self):
        arr = build(circle_spec((3, 1, 2)))
        removed = [c for c in arr.circles if c.role.kind == "removed"]
        assert len(removed) == (3 - 1) + (1 - 1) + (2 - 1)
        assert len(arr.circles) == len(removed)

    def test_sector_assignment(self):
        arr = build(circle_spec((3, 1, 2)))
        per_sector = {}
        for c in arr.circles:
            per_sector.setdefault(c.sector, []).append(c)
        assert sorted(per_sector) == [1, 3]
        assert len(per_sector[1]) == 2 and len(per_sector[3]) == 1

    def test_chain_is_radially_ordered(self):
        arr = build(circle_spec((5, 2, 2)))
        chain = sorted((c.role.channel, c.d) for c in arr.circles
                       if c.sector == 1)
        ds = [d for _, d in chain]
        assert ds == sorted(ds)
        # successive circles must not touch: certified below, ordered here
        assert all(a < b for a, b in zip(ds, ds[1:]))

    def test_handle_circles_halved(self):
        arr = build(circle_spec((2, 2, 2), dimension=5,
                                handles=(((1, 1), (2, 1)),)))
        handles = [c for c in arr.circles if c.role.kind == "handle"]
        assert len(handles) == 3
        assert {c.role.stage for c in handles} == {1, 2}

    def test_explicit_halfwidth_respected(self):
        spec = circle_spec((2, 2, 2), annulus_halfwidth=Fraction(15, 16))
        assert build(spec).halfwidth == Fraction(15, 16)

    def test_pinned_halfwidth_is_not_widened(self):
        # k=3 tangent circles need most of the disk; a narrow pinned
        # annulus must fail instead of being silently replaced
        spec = circle_spec((2, 2, 2), annulus_halfwidth=Fraction(1, 2))
        with pytest.raises(PackingFailure):
            build(spec)

    def test_oversized_halfwidth_fails_packing(self):
        spec = circle_spec((4, 4, 4), annulus_halfwidth=Fraction(9, 10))
        with pytest.raises(PackingFailure):
            build(spec)

    @pytest.mark.parametrize("spec", [torus_spec(), circle_spec((2, 2, 2))],
                             ids=["torus", "222"])
    def test_pinned_zero_halfwidth_fails_packing(self, spec):
        with pytest.raises(PackingFailure, match=r"must lie in \(0,1\)"):
            build(replace(spec, annulus_halfwidth=Fraction(0)))

    def test_torus_has_no_circles(self):
        arr = build(torus_spec())
        assert arr.k == 0 and arr.circles == ()
        assert arr.halfwidth == Fraction(1, 2)


class TestLineArrangement:
    def test_strips_and_walls(self):
        arr = build(line_spec((1, 2, 1)))
        assert arr.mode == "line"
        assert arr.k == 3
        assert arr.abscissae == (Fraction(-1), Fraction(-1, 3),
                                 Fraction(1, 3), Fraction(1))
        assert arr.ellipse_axes[0] == 1

    def test_removed_count(self):
        arr = build(line_spec((1, 3, 2, 1)))
        assert len(arr.circles) == (3 - 1) + (2 - 1)
        assert all(c.role.kind == "removed" for c in arr.circles)

    def test_circles_span_their_strip(self):
        arr = build(line_spec((1, 2, 1)))
        (c,) = arr.circles
        lo, hi = arr.abscissae[c.sector - 1], arr.abscissae[c.sector]
        assert c.center[0] - c.radius == lo
        assert c.center[0] + c.radius == hi

    def test_single_strip(self):
        arr = build(line_spec((1,)))
        assert arr.k == 1 and arr.circles == ()


class TestDisjointness:
    @pytest.mark.parametrize("name,spec",
                             NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS)
    def test_corpus_certifies(self, name, spec):
        arr = build(spec)
        report = certify_disjointness(arr)
        assert report.min_margin > arr.epsilon
        assert all(m > arr.epsilon for _, m in report.entries)

    def test_deep_chain_certifies(self):
        arr = build(circle_spec((6, 1, 6)))
        report = certify_disjointness(arr)
        assert report.min_margin > arr.epsilon > 0

    def test_violation_on_forced_overlap(self):
        arr = build(circle_spec((2, 2, 2)))
        # grow every circle far past its certified clearance
        fat = replace(arr, circles=tuple(
            replace(c, d=c.d * 2) for c in arr.circles))
        with pytest.raises((MarginViolation, PackingFailure)):
            certify_disjointness(fat)


def foot_sorted_events(arr):
    """The events built one by one and sorted by (turn, foot_lo, circle
    index): the reference for the cached list."""
    events = []
    for idx, c in enumerate(arr.circles):
        if arr.mode == "circle":
            c_lo, c_hi = cos_half_sector_bounds(arr.k)
            for boundary in (c.sector, c.sector + 1):
                events.append(TangencyEvent(
                    circle_index=idx, sector=c.sector, role=c.role,
                    turn=TurnAngle(Fraction(boundary, arr.k)),
                    foot_lo=c.d * c_lo, foot_hi=c.d * c_hi))
        else:
            for wall in (arr.abscissae[c.sector - 1], arr.abscissae[c.sector]):
                events.append(TangencyEvent(
                    circle_index=idx, sector=c.sector, role=c.role,
                    turn=TurnAngle(Fraction(0)), foot_lo=wall, foot_hi=wall))
    events.sort(key=lambda e: (e.turn.turns, e.foot_lo, e.circle_index))
    return tuple(events)


class TestTangencyEvents:
    def test_two_per_circle(self):
        arr = build(circle_spec((3, 2, 2)))
        events = tangency_events(arr)
        assert len(events) == 2 * len(arr.circles)

    def test_turns_are_vertex_angles(self):
        arr = build(circle_spec((2, 2, 2)))
        turns = {e.turn.turns for e in tangency_events(arr)}
        assert turns == {Fraction(0), Fraction(1, 3), Fraction(2, 3)}

    def test_events_sorted(self):
        arr = build(circle_spec((4, 3, 2, 2)))
        events = tangency_events(arr)
        keys = [e.turn.turns for e in events]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("name", [name for name, _ in NAMED_CORPUS
                                      + HANDLE_CORPUS + LINE_CORPUS]
                             + ["wide"])
    def test_order_is_turn_foot_index(self, name, corpus_models,
                                      benchmark_models):
        arr = {**corpus_models, **benchmark_models}[name].arrangement
        assert tangency_events(arr) == foot_sorted_events(arr)

    def test_line_events_touch_walls(self):
        arr = build(line_spec((1, 2, 1)))
        events = tangency_events(arr)
        assert len(events) == 2
        feet = sorted(e.foot_lo for e in events)
        assert feet == [Fraction(-1, 3), Fraction(1, 3)]
        assert all(e.foot_lo == e.foot_hi for e in events)


class TestArrangementJson:
    @pytest.mark.parametrize("name,spec",
                             NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS)
    def test_round_trip(self, name, spec):
        arr = build(spec)
        again = CircleArrangement.from_json(arr.to_json())
        assert again == arr


@st.composite
def packable_specs(draw):
    k = draw(st.integers(3, 7))
    mults = list(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    # break cyclically adjacent unit pairs; bumping to 2 creates no new pair
    for i in range(k):
        if mults[i] == 1 and mults[(i + 1) % k] == 1:
            mults[(i + 1) % k] = 2
    return circle_spec(mults)


class TestPackingProperties:
    @settings(max_examples=25, deadline=None)
    @given(packable_specs())
    def test_random_specs_pack_and_certify(self, spec):
        arr = build(spec)
        report = certify_disjointness(arr)
        assert report.min_margin > arr.epsilon
        assert len(tangency_events(arr)) == 2 * sum(
            a - 1 for a in spec.multiplicities)

    @settings(max_examples=25, deadline=None)
    @given(packable_specs())
    def test_all_circles_inside_annulus(self, spec):
        arr = build(spec)
        for c in arr.circles:
            lo, hi = arr.radius_bounds(c)
            assert 1 - arr.halfwidth < c.d - hi
            assert c.d + hi < 1 + arr.halfwidth


def reference_margins(arr):
    """Least clearance over every disk against the boundary and every disk
    pair, and over the pairs two or more sectors (strips) apart alone, from
    the exact parameters at 50 digits without any helper of ``layout``."""
    margins, far = [], []
    with mp.workdps(50):
        def num(q):
            return mp.mpf(q.numerator) / q.denominator

        if arr.mode == "circle":
            s = mp.sin(mp.pi / arr.k)
            disks = []
            for c in arr.circles:
                d = num(c.d)
                theta = mp.pi * (2 * c.sector + 1) / arr.k
                disks.append((d * mp.cos(theta), d * mp.sin(theta), d * s))
                margins.append(d * (1 - s) - num(1 - arr.halfwidth))
                margins.append(num(1 + arr.halfwidth) - d * (1 + s))
        else:
            ax, ay = arr.ellipse_axes
            disks = []
            for c in arr.circles:
                cx, cy = c.center
                edge_x = max(abs(cx - c.radius), abs(cx + c.radius))
                top_y = abs(cy) + c.radius
                margins.append(num(1 - edge_x ** 2 / ax ** 2
                                   - top_y ** 2 / ay ** 2))
                disks.append((num(cx), num(cy), num(c.radius)))
        for i, (xi, yi, ri) in enumerate(disks):
            for j in range(i + 1, len(disks)):
                xj, yj, rj = disks[j]
                gap = mp.sqrt((xi - xj) ** 2 + (yi - yj) ** 2) - ri - rj
                margins.append(gap)
                if sectors_apart(arr, i, j) >= 2:
                    far.append(gap)
        return min(margins), min(far, default=mp.inf)


def sectors_apart(arr, i, j):
    apart = abs(arr.circles[i].sector - arr.circles[j].sector)
    return min(apart, arr.k - apart) if arr.mode == "circle" else apart


def as_mpf(q):
    with mp.workdps(50):
        return mp.mpf(q.numerator) / q.denominator


@st.composite
def far_sector_specs(draw):
    k = draw(st.integers(4, 12))
    mults = list(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    for i in range(k):
        if mults[i] == 1 and mults[(i + 1) % k] == 1:
            mults[(i + 1) % k] = 2
    return circle_spec(mults)


class TestPairSplit:
    """Numeric margins for near pairs, the far-pair lemma for the rest."""

    def check_against_reference(self, arr, boundary_entries):
        report = certify_disjointness(arr)
        n = len(arr.circles)
        assert len(report.entries) + report.lemma_pairs == \
            boundary_entries * n + n * (n - 1) // 2
        near = {"pair:%d:%d" % (i, j)
                for i in range(n) for j in range(i + 1, n)
                if sectors_apart(arr, i, j) <= 1}
        assert {label for label, _ in report.entries
                if label.startswith("pair:")} == near
        least, least_far = reference_margins(arr)
        got = as_mpf(report.min_margin)
        # a certified lower bound, within float enclosure width of the truth
        assert least - mp.mpf(2) ** -40 <= got <= least + mp.mpf(2) ** -100
        if report.lemma_pairs:
            bound = _far_pair_bound(arr)
            assert as_mpf(bound) <= least_far
            assert report.min_margin <= bound
        return report

    @settings(max_examples=25, deadline=None)
    @given(far_sector_specs())
    def test_circle_specs_match_all_pairs(self, spec):
        # no two cyclically adjacent unit multiplicities, so some sectors
        # two or more apart both hold circles
        assert self.check_against_reference(build(spec), 2).lemma_pairs > 0

    @pytest.mark.parametrize("name,spec", LINE_CORPUS + [
        ("line (1,3,4,2,2,4,3,1)", line_spec((1, 3, 4, 2, 2, 4, 3, 1)))])
    def test_line_specs_match_all_pairs(self, name, spec):
        self.check_against_reference(build(spec), 1)

    def test_touching_adjacent_circles_are_named(self):
        arr = build(circle_spec((2, 3, 2, 3, 2)))
        i = next(i for i, c in enumerate(arr.circles) if c.sector == 1)
        j = next(j for j, c in enumerate(arr.circles) if c.sector == 2)
        # at one distance, neighbours touch at their shared tangency foot
        circles = list(arr.circles)
        circles[j] = replace(circles[j], d=circles[i].d)
        with pytest.raises(MarginViolation) as err:
            certify_disjointness(replace(arr, circles=tuple(circles)))
        assert err.value.pair == "pair:%d:%d" % (i, j)
        assert err.value.value <= arr.epsilon

    def test_touching_adjacent_strips_are_named(self):
        arr = build(line_spec((1, 3, 2, 1)))
        i = next(i for i, c in enumerate(arr.circles) if c.sector == 2)
        j = next(j for j, c in enumerate(arr.circles) if c.sector == 3)
        # at one height, neighbours touch on their shared wall
        circles = list(arr.circles)
        cx, _ = circles[j].center
        circles[j] = replace(circles[j], center=(cx, circles[i].center[1]))
        with pytest.raises(MarginViolation) as err:
            certify_disjointness(replace(arr, circles=tuple(circles)))
        assert err.value.pair == "pair:%d:%d" % (i, j)

    def test_600_vertex_cycle_is_linear(self):
        arr = build(circle_spec(tuple(2 + j % 2 for j in range(600))))
        report = certify_disjointness(arr)
        n = len(arr.circles)
        chain = max(Counter(c.sector for c in arr.circles).values())
        assert len(report.entries) <= 2 * n + 4 * n * chain
        assert len(report.entries) + report.lemma_pairs == \
            2 * n + n * (n - 1) // 2
        assert report.min_margin > arr.epsilon

    def test_far_bound_is_reported_when_least(self):
        # past about k = 900 the lemma's bound, about rho*2*pi/k, falls
        # below every near margin of this cycle
        arr = build(circle_spec(tuple(3 - j % 2 for j in range(2000))))
        report = certify_disjointness(arr)
        bound = _far_pair_bound(arr)
        assert report.min_margin == bound
        assert bound < min(m for _, m in report.entries)
