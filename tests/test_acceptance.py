"""Acceptance runs.

One test per numbered shipping criterion, in order.  Each test states its
tolerance or bound inline; the last one also bounds the wall time of the
whole file, so it must stay last.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from reebforge import (brute_oracle_reeb, build_arrangement,
                       certify_disjointness, euler_check, fiber_counts_check,
                       membership_check, path_isomorphic, reeb_isomorphic,
                       results_match, smooth_degree_two, sweep_reeb,
                       synthesize, validated, verify_morse)
from reebforge.cli import main
from reebforge.numbers import certainly_negative, certainly_positive
from reebforge.poly import eval_and_gradient, fiber_word
from conftest import HANDLE_CORPUS, LINE_CORPUS, NAMED_CORPUS, circle_spec, \
    torus_spec

T0 = time.perf_counter()

ALL_CORPUS = NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS

# stage count of the transverse sphere factors for each target dimension
SEQ_LEN = {3: 1, 4: 1, 5: 2, 7: 3}


def random_surface_spec(rng, max_vertices=12, max_multiplicity=5):
    k = rng.randint(3, max_vertices)
    mults = [rng.randint(1, max_multiplicity) for _ in range(k)]
    for j in range(k):
        # adjacent unit edges are only legal with a handle, so bump one
        if mults[j] == 1 and mults[(j + 1) % k] == 1:
            mults[(j + 1) % k] = 2
    return circle_spec(tuple(mults))


def random_handle_spec(rng):
    m = rng.choice((3, 4, 5, 7))
    k = rng.randint(3, 6)
    mults = [rng.randint(1, 4) for _ in range(k)]
    seq_len = SEQ_LEN[m]

    def nonzero_sequence():
        seq = [rng.randint(0, 2) for _ in range(seq_len)]
        if not any(seq):
            seq[rng.randrange(seq_len)] = 1
        return tuple(seq)

    handles = {}
    for j in range(k):
        if mults[j] == 1 and mults[(j + 1) % k] == 1:
            handles[(j + 2 if j + 1 < k else 1, 1)] = nonzero_sequence()
    for _ in range(rng.randint(1, 3)):
        edge = (rng.randint(1, k), 1)
        if edge not in handles:
            handles[edge] = nonzero_sequence()
    return circle_spec(tuple(mults), dimension=m,
                       handles=tuple(handles.items()))


def test_criterion_01_degree_law_surfaces():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    for _ in range(100):
        spec = random_surface_spec(rng)
        model = synthesize(validated(spec))
        want = 2 * sum(a - 1 for a in spec.multiplicities) + 4
        assert model.degree == want
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_degree_law_handles():
    rng = random.Random(2002)
    for _ in range(25):
        spec = random_handle_spec(rng)
        model = synthesize(validated(spec))
        handle_total = sum(sum(seq) for _, seq in spec.handles)
        want = 2 * handle_total \
            + 2 * sum(a - 1 for a in spec.multiplicities) + 4
        assert model.degree == want


def test_criterion_03_realization_on_corpus():
    for name, spec in ALL_CORPUS:
        t0 = time.perf_counter()
        v = validated(spec)
        arr = build_arrangement(v)
        result = sweep_reeb(arr, v.dimension)
        if v.mode == "line":
            assert path_isomorphic(v, result), name
        else:
            assert reeb_isomorphic(v, result), name
        assert time.perf_counter() - t0 < 1.0, name


def test_criterion_04_oracle_equivalence(corpus_models):
    t0 = time.perf_counter()
    for name, _ in ALL_CORPUS:
        model = corpus_models[name]
        swept = smooth_degree_two(
            sweep_reeb(model.arrangement, model.spec.dimension))
        sampled = brute_oracle_reeb(model.arrangement, 2048, 512)
        assert results_match(swept, sampled), name
    assert time.perf_counter() - t0 < 30.0


def test_criterion_05_region_identity(corpus_models):
    for name, _ in ALL_CORPUS:
        report = membership_check(corpus_models[name], count=100000)
        assert report.band == Fraction(1, 10 ** 9)
        assert report.ok, name
        assert report.mismatches == (), name
        assert report.count == 100000


def rational_boundary_points(model):
    """Exact points on factor zero sets, via the rational parametrization
    of circles with rational data.  Factors placed at irrational angles are
    skipped."""
    out = []
    pad = [Fraction(0)] * (model.polynomial.num_vars - 2)
    for stage in model.polynomial.stages:
        for f in stage.factors:
            if f.kind == "annulus_outer":
                cx, cy, r = Fraction(0), Fraction(0), 1 + f.a
            elif f.kind == "annulus_inner":
                cx, cy, r = Fraction(0), Fraction(0), 1 - f.a
            elif f.kind == "circle" and f.center is not None:
                cx, cy, r = f.center[0], f.center[1], f.radius
            elif f.kind == "ellipse_outer":
                A, B = f.axes
                for i in range(72):
                    t = Fraction(2 * i - 71, 73)
                    s = 1 + t * t
                    out.append([A * (1 - t * t) / s, B * 2 * t / s] + pad)
                continue
            else:
                continue
            for i in range(72):
                t = Fraction(2 * i - 71, 73)
                s = 1 + t * t
                out.append([cx + r * (1 - t * t) / s,
                            cy + r * 2 * t / s] + pad)
    return out


def test_criterion_06_regularity(corpus_models):
    for name, _ in ALL_CORPUS:
        report = certify_disjointness(corpus_models[name].arrangement)
        assert report.min_margin > Fraction(1, 10 ** 6), name

    checked = 0
    for name, _ in ALL_CORPUS:
        model = corpus_models[name]
        for point in rational_boundary_points(model):
            if checked == 1000:
                break
            value, grad = eval_and_gradient(model.polynomial, point,
                                            precision_bits=192)
            assert not certainly_positive(value)
            assert not certainly_negative(value)
            assert any(certainly_positive(g) or certainly_negative(g)
                       for g in grad)
            checked += 1
    assert checked == 1000


def test_criterion_07_tangencies_realize_vertices():
    rng = random.Random(7007)
    specs = [spec for _, spec in NAMED_CORPUS if spec.multiplicities]
    specs += [random_surface_spec(rng, max_vertices=8) for _ in range(10)]
    for spec in specs:
        v = validated(spec)
        arr = build_arrangement(v)
        cert = verify_morse(arr)
        assert len(cert.events) == \
            2 * sum(a - 1 for a in spec.multiplicities)
        k = len(spec.multiplicities)
        vertex_turns = {Fraction(j, k) for j in range(k)}
        event_turns = {e.turn.turns for e in cert.events}
        assert event_turns == vertex_turns


def test_criterion_08_euler_characteristic():
    rng = random.Random(8008)
    specs = [spec for _, spec in NAMED_CORPUS if spec.multiplicities]
    specs += [random_surface_spec(rng, max_vertices=8) for _ in range(10)]
    for spec in specs:
        v = validated(spec)
        arr = build_arrangement(v)
        report = euler_check(arr, v)
        saddles = verify_morse(arr).saddle_count
        assert report.chi_from_saddles == report.chi_from_region
        assert report.chi_from_saddles == -saddles
        assert report.chi_from_saddles == \
            -2 * sum(a - 1 for a in spec.multiplicities)

    torus = synthesize(validated(torus_spec()))
    report = euler_check(torus.arrangement, torus.spec)
    assert report.chi_from_saddles == report.chi_from_region == 0
    assert torus.degree == 4


def test_criterion_09_prescribed_fiber_counts():
    v = validated(circle_spec((2, 2, 2), dimension=5,
                              handles=(((1, 1), (1, 0)),)))
    table = fiber_counts_check(build_arrangement(v), v)
    rows = {(r.sector, r.channel): r for r in table.rows}
    assert rows[(1, 1)].counts == (1, 0)
    assert rows[(1, 1)].word == "S^1 x S^3"
    for key, row in rows.items():
        if key != (1, 1):
            assert row.counts == (0, 0)
            assert row.word == "S^4"

    for name, spec in HANDLE_CORPUS:
        v = validated(spec)
        table = fiber_counts_check(build_arrangement(v), v)
        for row in table.rows:
            assert row.counts == v.handle_sequence(row.sector, row.channel)
            assert row.word == fiber_word(v.dimension, row.counts)


def test_criterion_10_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"mode": "circle", "vertices": 3,
                                "multiplicities": [2, 2, 1],
                                "dimension": 2}))
    artifacts = {}
    for label in ("first", "second"):
        out = tmp_path / label
        assert main(["synthesize", "--spec", str(spec),
                     "--out", str(out)]) == 0
        assert main(["plot", "--model", str(out / "model.json"),
                     "--out", str(out)]) == 0
        artifacts[label] = {
            name: (out / name).read_bytes()
            for name in ("model.json", "arrangement.json",
                         "certificate.json", "plot.svg")}
    assert artifacts["first"] == artifacts["second"]
    assert time.perf_counter() - T0 < 60.0
