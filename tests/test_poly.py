"""Factored polynomials: exact expansion, evaluation, degrees, fibers."""

import math
import operator
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv

from reebforge import (NoFactors, build_arrangement, degree,
                       eval_and_gradient, evaluate_floats, expand,
                       fiber_word, nonsingular_extension, region_polynomial,
                       render_text, synthesize, validated)
from reebforge import poly as poly_module
from reebforge.errors import ExpansionTooLarge, HeightFailure
from reebforge.numbers import DEFAULT_PRECISION_BITS, BoxArray, \
    decimal_ball, float_bounds, interval_inf, interval_precision, \
    interval_sup, turn_sin_cos
from reebforge.poly import BoxConsts, DiskValues, FactoredPolynomial, \
    IvConsts, SiteCovers, SurfaceModel, _certified_height, _disk_planar_box, \
    _evaluate, _ExactConsts, _factor_is_rational, _factor_value, _Lifted, \
    _Terms, certify_ellipsoid_inside, evaluate_boxes, expand_terms, \
    staged_polynomial
from conftest import HANDLE_CORPUS, LINE_CORPUS, NAMED_CORPUS, circle_spec, \
    line_spec, torus_spec


def evaluate_terms(terms: dict, point) -> object:
    """Evaluate a monomial dictionary; Fraction-exact when inputs are."""
    total = None
    for exponents, coeff in terms.items():
        term = coeff
        for i, e in enumerate(exponents):
            for _ in range(e):
                term = term * point[i]
        total = term if total is None else total + term
    return total


TORUS_TERMS = {
    (0, 0): Fraction(-9, 16),
    (2, 0): Fraction(5, 2),
    (0, 2): Fraction(5, 2),
    (4, 0): Fraction(-1),
    (2, 2): Fraction(-2),
    (0, 4): Fraction(-1),
}


class TestTorusExactly:
    def test_region_expansion(self):
        arr = build_arrangement(validated(torus_spec()))
        terms = expand_terms(region_polynomial(arr))
        assert terms == TORUS_TERMS

    def test_surface_adds_one_square(self):
        model = synthesize(validated(torus_spec()))
        assert model.polynomial.num_vars == 3
        terms = expand_terms(model.polynomial)
        want = {e + (0,): c for e, c in TORUS_TERMS.items()}
        want[(0, 0, 2)] = Fraction(-1)
        assert terms == want

    def test_degree_four(self):
        assert synthesize(validated(torus_spec())).degree == 4

    def test_exact_value_on_axis(self):
        # F(5/4, 0) = (9/4 - 25/16)(25/16 - 1/4) = (11/16)(21/16)
        arr = build_arrangement(validated(torus_spec()))
        terms = expand_terms(region_polynomial(arr))
        value = evaluate_terms(terms, (Fraction(5, 4), Fraction(0)))
        assert value == Fraction(11 * 21, 256)


class TestDegree:
    def test_two_per_factor(self):
        model = synthesize(validated(circle_spec((2, 2, 2))))
        assert degree(model.polynomial) == 2 * model.polynomial.factor_count()
        assert model.degree == 10

    def test_no_factors(self):
        with pytest.raises(NoFactors):
            degree(FactoredPolynomial(num_vars=2, stages=()))

    @pytest.mark.parametrize("name,spec",
                             NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS)
    def test_even_and_positive(self, name, spec):
        model = synthesize(validated(spec))
        assert model.degree > 0 and model.degree % 2 == 0


class TestFiberWord:
    def test_empty_sequence_is_sphere(self):
        assert fiber_word(2, ()) == "S^1"
        assert fiber_word(5, ()) == "S^4"
        assert fiber_word(7, ()) == "S^6"

    def test_single_stages(self):
        assert fiber_word(5, (1, 0)) == "S^1 x S^3"
        assert fiber_word(5, (0, 1)) == "S^2 x S^2"
        assert fiber_word(7, (0, 1, 0)) == "S^2 x S^4"

    def test_connected_sums(self):
        assert fiber_word(5, (1, 1)) == "S^1 x S^3 # S^2 x S^2"
        assert fiber_word(3, (2,)) == "S^1 x S^1 # S^1 x S^1"
        assert fiber_word(5, (2, 1)) == "S^1 x S^3 # S^1 x S^3 # S^2 x S^2"


def float_factor_value(f, x, y):
    """Reference float evaluation of one factor on the transverse-zero
    slice, straight from the placement data."""
    if f.kind == "annulus_outer":
        return float((1 + f.a) ** 2) - x * x - y * y
    if f.kind == "annulus_inner":
        return x * x + y * y - float((1 - f.a) ** 2)
    if f.kind == "ellipse_outer":
        A, B = float(f.axes[0]), float(f.axes[1])
        return A * A * B * B - B * B * x * x - A * A * y * y
    if f.center is not None:
        cx, cy = float(f.center[0]), float(f.center[1])
        r = float(f.radius)
    else:
        cx = float(f.d) * math.cos(2 * math.pi * float(f.turn))
        cy = float(f.d) * math.sin(2 * math.pi * float(f.turn))
        r = float(f.scale) * float(f.d) * math.sin(math.pi / f.sectors)
    # on the transverse-zero slice an ellipsoid factor is just its disk
    return (x - cx) ** 2 + (y - cy) ** 2 - r * r


class TestEvaluation:
    def test_zero_slice_is_the_factor_product(self):
        model = synthesize(validated(circle_spec(
            (2, 2, 2), dimension=5, handles=(((1, 1), (1, 1)),))))
        poly = model.polynomial
        rng = np.random.default_rng(7)
        pts = np.zeros((poly.num_vars, 64))
        pts[0] = rng.uniform(-2, 2, 64)
        pts[1] = rng.uniform(-2, 2, 64)
        got = evaluate_floats(poly, pts)
        want = np.ones(64)
        for stage in poly.stages:
            for f in stage.factors:
                want *= [float_factor_value(f, x, y)
                         for x, y in zip(pts[0], pts[1])]
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_deficit_squares_subtract(self):
        # off the zero slice the transverse squares must appear
        model = synthesize(validated(torus_spec()))
        poly = model.polynomial
        pts = np.array([[1.0], [0.25], [0.5]])
        region = evaluate_terms(expand_terms(region_polynomial(
            model.arrangement)), (Fraction(1), Fraction(1, 4)))
        assert np.isclose(evaluate_floats(poly, pts)[0],
                          float(region) - 0.25)

    def test_interval_contains_float(self):
        model = synthesize(validated(circle_spec((2, 2, 1))))
        poly = model.polynomial
        point = [Fraction(9, 8), Fraction(-1, 3)] + \
            [Fraction(0)] * (poly.num_vars - 2)
        value, grad = eval_and_gradient(poly, point)
        pts = np.array([[float(p)] for p in point])
        plain = evaluate_floats(poly, pts)[0]
        from reebforge.numbers import interval_inf, interval_sup
        assert float(interval_inf(value)) - 1e-9 <= plain
        assert plain <= float(interval_sup(value)) + 1e-9
        assert len(grad) == poly.num_vars

    def test_gradient_matches_finite_differences(self):
        model = synthesize(validated(circle_spec((2, 1, 2))))
        poly = model.polynomial
        base = [Fraction(9, 8), Fraction(1, 5), Fraction(1, 7)]
        value, grad = eval_and_gradient(poly, base)
        from reebforge.numbers import interval_mid
        h = 1e-6
        for i in range(poly.num_vars):
            hi = [float(x) for x in base]
            lo = [float(x) for x in base]
            hi[i] += h
            lo[i] -= h
            pts = np.array([hi, lo]).T
            fd = (evaluate_floats(poly, pts)[0]
                  - evaluate_floats(poly, pts)[1]) / (2 * h)
            assert abs(float(interval_mid(grad[i])) - fd) < 1e-4

    def test_point_dimension_checked(self):
        model = synthesize(validated(torus_spec()))
        with pytest.raises(ValueError):
            eval_and_gradient(model.polynomial, [Fraction(1)])


def term_pool(n, coeffs):
    """Constants as constant terms of n-variable sparse polynomials."""
    return _Lifted(coeffs, lambda c: _Terms({(0,) * n: c}))


def reference_terms(poly, precision_bits=DEFAULT_PRECISION_BITS):
    """The expansion as `_evaluate` over `_Terms` computed it before the
    integer kernel: one pair of terms at a time, exact Fractions or
    precision_bits mpmath intervals.  Kept only as a reference."""
    n = poly.num_vars
    exact = all(_factor_is_rational(f) for s in poly.stages
                for f in s.factors)
    coeffs = _ExactConsts() if exact else IvConsts()
    with interval_precision(precision_bits):
        xs = [_Terms({tuple(int(j == i) for j in range(n)): coeffs.lift(1)})
              for i in range(n)]
        return _evaluate(poly, xs, term_pool(n, coeffs)).terms


def last_place(text):
    """The unit of the last digit of a decimal literal."""
    mantissa, _, exponent = text.partition("e")
    return Fraction(10) ** (int(exponent or 0)
                            - len(mantissa.partition(".")[2]))


# the fourteen-factor model the benchmark exports
EXPORT_SPEC = circle_spec((2, 2, 2, 3, 3, 3, 4))
# a four-stage handle chain: tiny partial products meet large transverse
# walls later, and a fixed den left balls 1e25 times wider than the
# reference
DEEP_CHAIN = circle_spec((2, 2, 2), dimension=9,
                         handles=(((1, 1), (1, 1, 1, 1)),))
CORPUS_NAMES = [n for n, _ in NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS]


class TestExpansionKernel:
    @pytest.mark.parametrize("name", CORPUS_NAMES + ["m9 chain"])
    def test_matches_the_reference(self, corpus_models, name):
        poly = (corpus_models[name] if name in corpus_models
                else synthesize(validated(DEEP_CHAIN))).polynomial
        got, want = expand_terms(poly), reference_terms(poly)
        assert got.keys() == want.keys()
        for exponents, coeff in got.items():
            ref = want[exponents]
            if isinstance(ref, Fraction):
                assert isinstance(coeff, Fraction) and coeff == ref
            else:
                assert interval_inf(coeff) <= interval_sup(ref)
                assert interval_inf(ref) <= interval_sup(coeff)
                assert interval_sup(coeff) - interval_inf(coeff) <= \
                    2 * (interval_sup(ref) - interval_inf(ref))

    @pytest.mark.parametrize("bits,guard", [(16, 0), (16, 64), (128, 64)])
    @pytest.mark.parametrize("name", ["k=0", "line (1,3,2,1)", "(2,2,2)",
                                      "m5 stage1"])
    def test_balls_hold_the_coefficients(self, corpus_models, monkeypatch,
                                         name, bits, guard):
        # every model through the interval kernel, with no guard bits as
        # coarse as the factor enclosures; the truth is the exact
        # coefficient of a rational model, else (to within 2**-1000) the
        # midpoint of a 1024-bit reference enclosure
        poly = corpus_models[name].polynomial
        truth = {e: c if isinstance(c, Fraction)
                 else (interval_inf(c) + interval_sup(c)) / 2
                 for e, c in reference_terms(poly, 1024).items()}
        reference = reference_terms(poly, bits)
        monkeypatch.setattr(poly_module, "_factor_is_rational",
                            lambda f: False)
        monkeypatch.setattr(poly_module, "EXPANSION_GUARD_BITS", guard)
        balls = expand_terms(poly, bits)
        assert balls.keys() == truth.keys()
        for exponents, coeff in truth.items():
            ball, ref = balls[exponents], reference[exponents]
            assert interval_inf(ball) <= coeff <= interval_sup(ball)
            width = interval_sup(ball) - interval_inf(ball)
            if isinstance(ref, Fraction):
                assert width <= Fraction(64, 2 ** bits) * max(1, abs(coeff))
            elif guard:  # no wider than the product it replaced
                assert width <= 2 * (interval_sup(ref) - interval_inf(ref))

    def test_factor_balls_hold_the_enclosures(self, corpus_models):
        poly = corpus_models["m5 stage1"].polynomial
        n = poly.num_vars
        with interval_precision(16):
            pool = term_pool(n, IvConsts())
            xs = [_Terms({tuple(int(j == i) for j in range(n)):
                          pool.coeffs.lift(1)}) for i in range(n)]
            factors = [_factor_value(f, xs, pool).terms
                       for s in poly.stages for f in s.factors]
        steps = [step for step in poly_module._steps(poly, 16) if step[-1]]
        assert len(steps) == len(factors)
        for terms, (_, mids, rads, den, _) in zip(factors, steps):
            for coeff, mid, rad in zip(terms.values(), mids, rads):
                assert Fraction(mid - rad, den) <= interval_inf(coeff)
                assert interval_sup(coeff) <= Fraction(mid + rad, den)

    def test_export_model_keeps_seventeen_digits(self):
        terms = expand_terms(synthesize(validated(EXPORT_SPEC)).polynomial)
        assert len(terms) == 422
        for coeff in terms.values():
            lo, hi = interval_inf(coeff), interval_sup(coeff)
            mid = abs(lo + hi) / 2
            lead = math.floor(math.log10(mid))
            while Fraction(10) ** lead > mid:
                lead -= 1
            while Fraction(10) ** (lead + 1) <= mid:
                lead += 1
            # the radius leaves the 17th significant digit proved
            assert hi - lo <= Fraction(10) ** (lead - 16)

    def test_guard_counts_the_support(self, corpus_models, monkeypatch):
        poly = corpus_models["m7 mixed"].polynomial
        count = len(expand_terms(poly))
        monkeypatch.setattr(poly_module, "EXPANSION_GUARD", count)
        assert len(expand_terms(poly)) == count
        monkeypatch.setattr(poly_module, "EXPANSION_GUARD", count // 2)
        with pytest.raises(ExpansionTooLarge, match="exceeded %d"
                           % (count // 2)):
            expand_terms(poly)

    @pytest.mark.parametrize("bits", [15, 0, -5])
    def test_precision_below_the_floor_refused(self, bits):
        poly = synthesize(validated(circle_spec((2, 2, 2)))).polynomial
        with pytest.raises(ValueError, match="precision_bits"):
            expand_terms(poly, bits)


class TestDecimalBall:
    def test_exact(self):
        assert decimal_ball(-9, 0, 16, 12) == ("-0.5625", "0")
        assert decimal_ball(3, 0, 1, 17) == ("3", "0")

    def test_ball_containing_zero_prints_zero(self):
        # 1.455e-10 +- 7.31e-10: no digit is proved
        assert decimal_ball(1455, 7310, 10 ** 13, 17) == ("0", "8.77e-10")

    def test_radius_limits_the_digits(self):
        assert decimal_ball(12345678901234567891, 3 * 10 ** 8, 10 ** 10,
                            17) == ("1234567890.1", "0.0535")
        assert decimal_ball(15, 14, 10, 17) == ("0", "2.9")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10 ** 40, 10 ** 40), st.integers(0, 10 ** 30),
           st.integers(0, 200).map(lambda s: 1 << s)
           | st.integers(1, 10 ** 40), st.integers(1, 17))
    def test_prints_a_proved_enclosure(self, mid, rad, den, digits):
        text, radius = decimal_ball(mid, rad, den, digits)
        c, r = Fraction(text), Fraction(radius)
        assert c - r <= Fraction(mid - rad, den)
        assert Fraction(mid + rad, den) <= c + r
        if c:
            assert r <= last_place(text)
            significant = text.lstrip("-").partition("e")[0]
            assert len(significant.replace(".", "").lstrip("0")) <= digits


class TestExpand:
    def test_grlex_order_and_keys(self):
        model = synthesize(validated(torus_spec()))
        data = expand(model.polynomial)
        assert data["ordering"] == "grlex"
        assert data["variables"] == 3
        degrees = [sum(m["exponents"]) for m in data["monomials"]]
        assert degrees == sorted(degrees)
        assert all("/" in m["coefficient"] for m in data["monomials"])

    def test_interval_coefficients_for_staged_models(self):
        model = synthesize(validated(circle_spec(
            (2, 2, 2), dimension=5, handles=(((1, 1), (1, 0)),))))
        data = expand(model.polynomial)
        radii = [m for m in data["monomials"] if "radius" in m]
        assert radii, "irrational placements need enclosure radii"
        assert all(float(m["radius"]) >= 0 for m in radii)

    def test_expansion_consistent_with_direct_evaluation(self):
        model = synthesize(validated(circle_spec((2, 2, 2))))
        terms = expand_terms(model.polynomial)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.5, 1.5, (model.polynomial.num_vars, 16))
        direct = evaluate_floats(model.polynomial, pts)
        from reebforge.numbers import interval_mid
        for col in range(16):
            point = [pts[i][col] for i in range(pts.shape[0])]
            total = 0.0
            for expo, coeff in terms.items():
                c = float(coeff) if isinstance(coeff, Fraction) \
                    else float(interval_mid(coeff))
                total += c * math.prod(x ** e for x, e in zip(point, expo))
            assert abs(total - direct[col]) < 1e-7 * max(1, abs(direct[col]))

    @pytest.mark.parametrize(
        "name", [n for n, _ in NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS])
    def test_expansion_encloses_the_polynomial(self, corpus_models, name):
        from reebforge.numbers import to_interval
        poly = corpus_models[name].polynomial
        terms = expand_terms(poly)
        exact = all(isinstance(c, Fraction) for c in terms.values())
        for planar in ((Fraction(9, 8), Fraction(-1, 3)),
                       (Fraction(-3, 5), Fraction(7, 10)),
                       (Fraction(1, 7), Fraction(-6, 5))):
            point = list(planar) + [Fraction(1, 8 + 3 * i)
                                    for i in range(poly.num_vars - 2)]
            value, _ = eval_and_gradient(poly, point)
            lo, hi = interval_inf(value), interval_sup(value)
            if exact:
                assert lo <= evaluate_terms(terms, point) <= hi
            else:
                with interval_precision(DEFAULT_PRECISION_BITS):
                    got = evaluate_terms(terms, [to_interval(p)
                                                 for p in point])
                assert interval_inf(got) <= hi and lo <= interval_sup(got)
        # every printed digit is proved, and the printed ball encloses
        for entry in expand(poly)["monomials"]:
            if "radius" not in entry:
                continue
            c = Fraction(entry["coefficient"])
            r = Fraction(entry["radius"])
            ball = terms[tuple(entry["exponents"])]
            assert c - r <= interval_inf(ball)
            assert interval_sup(ball) <= c + r
            if c:
                assert r <= last_place(entry["coefficient"])

    def test_render_text_torus(self):
        model = synthesize(validated(torus_spec()))
        text = render_text(model.polynomial)
        assert text.startswith("P(x1,x2,x3) = ")
        assert "-0.5625" in text and "x3^2" in text


def grid(lo, hi, cells):
    edges = np.linspace(float_bounds(lo)[0], float_bounds(hi)[1], cells + 1)
    return edges[:-1], edges[1:]


def box_cover_witness(poly, site, cells=10):
    """The (2+t)-dimensional certificate the planar bound replaced: over
    cells^2 x 3^t boxes of the ellipsoid's bounding box, each box is
    certifiably outside the ellipsoid or certifiably positive; the cover
    is refined up to eight times."""
    t = len(site.transverse)
    assert t <= 3, "3^t boxes per planar cell"
    x_lo, x_hi, y_lo, y_hi = _disk_planar_box(site)
    for n in (cells, 2 * cells, 4 * cells, 8 * cells):
        axes = [grid(x_lo, x_hi, n), grid(y_lo, y_hi, n)] + \
            [grid(-site.height, site.height, 3)] * t
        los = np.meshgrid(*[a[0] for a in axes], indexing="ij")
        his = np.meshgrid(*[a[1] for a in axes], indexing="ij")
        boxes = [BoxArray(lo.ravel(), hi.ravel()) for lo, hi in zip(los, his)]
        boxes += [BoxArray.exact(0.0)] * (poly.num_vars - len(boxes))
        outside = _factor_value(site, boxes, BoxConsts()).lo > 0
        if np.all(outside | (evaluate_boxes(poly, boxes).lo > 0)):
            return True
    return False


def earlier_stages(model):
    """(P_{s-1}, ellipsoid, its covers in the model's batch) for every site
    of the model, in stage order."""
    heights = iter(f.height for s in model.polynomial.stages
                   for f in s.factors if f.kind == "ellipsoid")
    triples = []

    def record(poly, site, covers, where):
        site = replace(site, height=next(heights))
        triples.append((poly, site, covers))
        return site.height

    staged_polynomial(model.spec, model.arrangement, record)
    return triples


def one_site(poly, site):
    """The covers of `site` alone: a batch of one."""
    return SiteCovers(DiskValues([site]), 0, poly)


def per_site_first_cover(poly, site):
    """The first cover as one site was evaluated alone before the batch:
    its own 16-cell cover, every factor of `poly` at t = 0 on the kept
    cells, the stage products and F."""
    x_lo, x_hi, y_lo, y_hi = _disk_planar_box(site)
    ex = np.linspace(float_bounds(x_lo)[0], float_bounds(x_hi)[1], 17)
    ey = np.linspace(float_bounds(y_lo)[0], float_bounds(y_hi)[1], 17)
    bx = BoxArray(np.repeat(ex[:-1], 16), np.repeat(ex[1:], 16))
    by = BoxArray(np.tile(ey[:-1], 16), np.tile(ey[1:], 16))
    disk = replace(site, kind="circle", transverse=())
    keep = ~(_factor_value(disk, [bx, by], BoxConsts()).lo > 0)
    xs = [BoxArray(bx.lo[keep], bx.hi[keep]),
          BoxArray(by.lo[keep], by.hi[keep])]
    values = [[_factor_value(replace(f, transverse=()), xs, BoxConsts())
               for f in s.factors] for s in poly.stages]
    products = [reduce(operator.mul, vs) for vs in values]
    return values, products, reduce(operator.mul, products)


BATCH_CASES = [n for n, _ in HANDLE_CORPUS] + ["deep-m9", "deep-m13"]


class TestContainment:
    @pytest.mark.parametrize("name", [n for n, _ in HANDLE_CORPUS])
    def test_heights_pass_both_certificates(self, corpus_models, name):
        triples = earlier_stages(corpus_models[name])
        assert triples
        for poly, site, covers in triples:
            assert box_cover_witness(poly, site)
            assert certify_ellipsoid_inside(covers, site.height)
            assert certify_ellipsoid_inside(one_site(poly, site),
                                            site.height)
        poly, site, covers = triples[0]
        tall = replace(site, height=site.height * 1000)
        assert not certify_ellipsoid_inside(covers, tall.height)
        assert not certify_ellipsoid_inside(one_site(poly, site),
                                            tall.height)
        assert not box_cover_witness(poly, tall)

    @pytest.mark.parametrize("name", [n for n, _ in HANDLE_CORPUS])
    def test_covers_enclose_the_polynomial_at_t_zero(self, corpus_models,
                                                      name):
        # F, the product of the stage products, and the whole polynomial
        # at t = 0 enclose the same values on every cover
        for poly, site, covers in earlier_stages(corpus_models[name]):
            zeros = [BoxArray.exact(0.0)] * (poly.num_vars - 2)
            for cells, (_, _, whole) in zip((16, 32, 64), covers):
                xs, _ = poly_module._disk_cells([site], cells)
                direct = evaluate_boxes(poly, xs + zeros)
                assert np.all(whole.lo <= direct.hi)
                assert np.all(direct.lo <= whole.hi)

    def test_covers_are_evaluated_once(self, corpus_models, monkeypatch):
        poly, site, _ = earlier_stages(corpus_models["m5 stage1"])[0]
        calls = []
        real = poly_module._factor_value
        monkeypatch.setattr(poly_module, "_factor_value",
                            lambda *a: calls.append(1) or real(*a))
        covers = one_site(poly, site)
        first = list(covers)
        count = len(calls)
        # per cover, the disk's own cell mask and every factor
        assert count == len(first) * (poly.factor_count() + 1)
        again = list(covers)  # replayed, not evaluated again
        assert len(again) == len(first) and len(calls) == count
        assert all(a is b for a, b in zip(again, first))

    @pytest.mark.parametrize("name", BATCH_CASES)
    def test_batch_equals_the_per_site_loop(self, corpus_models,
                                            benchmark_models, name):
        # every double of the first cover, site by site
        model = {**corpus_models, **benchmark_models}[name]
        for poly, site, covers in earlier_stages(model):
            values, products, whole = next(iter(covers))
            want_values, want_products, want_whole = \
                per_site_first_cover(poly, site)
            assert [len(vs) for vs in values] == \
                [len(vs) for vs in want_values] == \
                [len(s.factors) for s in poly.stages]
            got = [v for vs in values for v in vs] + products + [whole]
            want = [v for vs in want_values for v in vs] + want_products + \
                [want_whole]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g.lo, w.lo)
                assert np.array_equal(g.hi, w.hi)

    @pytest.mark.parametrize("name", BATCH_CASES)
    def test_load_evaluates_each_factor_once(self, corpus_models,
                                             benchmark_models, monkeypatch,
                                             name):
        model = {**corpus_models, **benchmark_models}[name]
        data = model.to_json()
        calls = []
        real = poly_module._factor_value
        monkeypatch.setattr(poly_module, "_factor_value",
                            lambda *a: calls.append(1) or real(*a))
        SurfaceModel.from_json(data)
        # one cell mask per site, then each factor at most once
        assert 0 < len(calls) <= \
            len(model.sites) + model.polynomial.factor_count()

    def test_negative_disk_names_its_site(self, corpus_models):
        # a site over a removed disk, where F is negative
        poly = corpus_models["m5 stage1"].polynomial
        disk = next(f for f in poly.stages[0].factors if f.kind == "circle")
        site = replace(disk, kind="ellipsoid",
                       transverse=tuple(range(2, poly.num_vars)))
        where = "ellipsoid at sector 9 stage 9"
        with pytest.raises(HeightFailure,
                           match="^%s: no positive lower bound" % where):
            _certified_height(poly, site, one_site(poly, site), where)


class TestDualGradient:
    @pytest.mark.parametrize("name", ["k=0", "line (1,2,1)",
                                      "line (1,3,2,1)"])
    def test_encloses_the_exact_partials(self, corpus_models, name):
        # the exact expansion of a rational model, differentiated term by
        # term, against the dual enclosures at rational points
        poly = corpus_models[name].polynomial
        terms = expand_terms(poly)
        assert all(isinstance(c, Fraction) for c in terms.values())
        n = poly.num_vars
        partials = []
        for i in range(n):
            partials.append({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                             for e, c in terms.items() if e[i]})
        for planar in ((Fraction(9, 8), Fraction(-1, 3)),
                       (Fraction(-3, 5), Fraction(7, 10)),
                       (Fraction(0), Fraction(0)),
                       (Fraction(1, 7), Fraction(-6, 5))):
            point = list(planar) + [Fraction(1, 8 + 3 * i)
                                    for i in range(n - 2)]
            value, grad = eval_and_gradient(poly, point)
            exact = evaluate_terms(terms, point)
            assert interval_inf(value) <= exact <= interval_sup(value)
            for i in range(n):
                want = evaluate_terms(partials[i], point) or Fraction(0)
                assert interval_inf(grad[i]) <= want <= \
                    interval_sup(grad[i]), (point, i)


class TestIntervalConstants:
    def test_cached_per_precision(self):
        # the cached enclosures are the fresh ones at every precision, so
        # a narrow one is never reused at a coarser precision or the reverse
        def ends(*ivs):
            return [(interval_inf(v), interval_sup(v)) for v in ivs]

        widths = []
        for bits in (64, 192, 64, 192):
            with interval_precision(bits):
                cos_t, sin_t = IvConsts().turn_cos_sin(Fraction(1, 7))
                fresh_sin, fresh_cos = turn_sin_cos(Fraction(1, 7))
                assert ends(cos_t, sin_t) == ends(fresh_cos, fresh_sin)
                half = IvConsts().sin_half(7)
                assert ends(half) == ends(iv.sin(iv.pi / 7))
                widths.append(interval_sup(cos_t) - interval_inf(cos_t))
        assert widths[0] == widths[2] > widths[1] == widths[3] > 0


# the supported envelope at its edge: a doubled stage at m = 13, and eight
# stages at m = 17
ENVELOPE = [
    ("m13 doubled stage", circle_spec(
        (2, 2, 2), dimension=13,
        handles=(((1, 1), (1, 1, 1, 2, 1, 1)), ((2, 1), (1, 1, 1, 1, 1, 2))))),
    ("m17 eight stages", circle_spec(
        (2, 2, 2), dimension=17,
        handles=(((1, 1), (1,) * 8), ((2, 2), (1,) * 8)))),
]


class TestModelJson:
    @pytest.mark.parametrize(
        "name,spec", NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS + ENVELOPE)
    def test_round_trip(self, name, spec):
        model = synthesize(validated(spec))
        again = SurfaceModel.from_json(model.to_json())
        assert again.polynomial == model.polynomial
        assert again.arrangement == model.arrangement
        assert again.spec == model.spec
        assert again.to_json() == model.to_json()
        assert again.sites == model.sites

    def test_channel_fiber(self):
        model = synthesize(validated(circle_spec(
            (2, 2, 2), dimension=5, handles=(((1, 1), (1, 0)),))))
        assert model.channel_fiber(1, 1) == "S^1 x S^3"
        assert model.channel_fiber(2, 1) == "S^4"


class TestExtension:
    def test_artifact_shape(self):
        model = synthesize(validated(circle_spec((2, 2, 2))))
        artifact = nonsingular_extension(model)
        data = artifact.to_json()
        assert data["inequality"]["relation"] == ">= 0"
        assert data["inequality"]["degree"] == model.degree
        assert data["boundary_is_model_zero_set"] is True
        assert artifact.polynomial == model.polynomial

    def test_line_mode_retraction(self):
        model = synthesize(validated(line_spec((1, 2, 1))))
        data = nonsingular_extension(model).to_json()
        assert "x-axis" in data["map"]["composition"][1]


class TestUsConstruction:
    def test_ambient_dimension_no_handles(self):
        # one deficit block of m-1 squares doubles the planar region into
        # a hypersurface of dimension m
        for m in (2, 3, 5, 7):
            spec = circle_spec((2, 2, 2), dimension=m)
            model = synthesize(validated(spec))
            assert model.ambient_dimension == m + 1

    def test_deficits_listed_per_stage(self):
        model = synthesize(validated(circle_spec(
            (2, 2, 2), dimension=5, handles=(((1, 1), (1, 1)),))))
        poly = model.polynomial
        total = sum(len(stage.deficit_vars) for stage in poly.stages)
        assert total == poly.num_vars - 2
        staged = [s for s in poly.stages
                  if any(f.kind == "ellipsoid" for f in s.factors)]
        assert len(staged) == 2
