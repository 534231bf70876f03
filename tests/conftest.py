"""Shared spec builders for the test suite."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from reebforge import GraphSpec, validated
from reebforge.graphs import graph_spec_from_json
from reebforge.oracle import _Complex, _slice_doubles


def circle_spec(multiplicities, dimension=2, handles=(), **kw):
    return GraphSpec(mode="circle", vertices=len(multiplicities),
                     multiplicities=tuple(multiplicities),
                     dimension=dimension, handles=tuple(handles), **kw)


def line_spec(multiplicities, dimension=2):
    return GraphSpec(mode="line", vertices=len(multiplicities) + 1,
                     multiplicities=tuple(multiplicities),
                     dimension=dimension)


def hand_built(positions, runs, cyclic):
    """A sample complex of slices at the sorted Fractions `positions`, with
    the runs [(lo, hi), ...] of each slice, in order."""
    den = math.lcm(*(p.denominator for p in positions))
    keys = [p.numerator * (den // p.denominator) for p in positions]
    flat = [(s, lo, hi) for s, own in enumerate(runs) for lo, hi in own]
    row, lo, hi = np.array(flat, dtype=np.int64).reshape(-1, 3).T
    return _Complex(keys, den, _slice_doubles(keys, den), row, lo, hi,
                    cyclic)


def torus_spec():
    return GraphSpec(mode="circle", vertices=0, multiplicities=(),
                     dimension=2)


# the named corpus: every spec here must synthesize, sweep, and verify
NAMED_CORPUS = [
    ("(2,2,2)", circle_spec((2, 2, 2))),
    ("(2,2,1)", circle_spec((2, 2, 1))),
    ("(2,1,2)", circle_spec((2, 1, 2))),
    ("k=0", torus_spec()),
]

HANDLE_CORPUS = [
    ("m5 stage1", circle_spec((2, 2, 2), dimension=5,
                              handles=(((1, 1), (1, 0)),))),
    ("m5 rescue", circle_spec((1, 1, 2), dimension=5,
                              handles=(((2, 1), (1, 1)),))),
    ("m7 mixed", circle_spec((2, 1, 1), dimension=7,
                             handles=(((2, 1), (1, 0, 1)),))),
]

LINE_CORPUS = [
    ("line (1,2,1)", line_spec((1, 2, 1))),
    ("line (1,3,2,1)", line_spec((1, 3, 2, 1))),
]


@pytest.fixture(scope="session")
def corpus_models():
    """Synthesized models for every corpus spec, built once."""
    from reebforge import synthesize
    out = {}
    for name, spec in NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS:
        out[name] = synthesize(validated(spec))
    return out


@pytest.fixture(scope="session")
def benchmark_models():
    """Models of the benchmark's `wide_cycle_round(1, 0)` and
    `deep_handles_round(1, 0)` specs, by slot."""
    from reebforge import synthesize
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    tasks = (workloads.wide_cycle_round(1, 0)[:1]
             + workloads.deep_handles_round(1, 0)[:2])
    return {task["slot"]: synthesize(validated(graph_spec_from_json(
        task["spec"]))) for task in tasks}
