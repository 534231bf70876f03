"""Seeded graph specs for the benchmark workloads.

Every spec is a plain JSON object in the format `reebforge synthesize
--spec` reads.  A workload is a sequence of rounds, and every round has the
same slots: the same operations on specs of the same size.  The seed only
arranges each spec (the order of its multiplicities, the sectors of its
handle circles), so the work of a slot hardly moves from round to round
or from seed to seed, and a run that stops after any whole round has
the same mix of operations, and the same share of failed ones, as any
other.

Only this module decides which inputs a workload gets.  The seed reaches
the program solely through the generated spec files.
"""

from __future__ import annotations

import random

WORKLOADS = ("corpus", "wide_cycle", "deep_handles")

# rounds generated per run, more than any run completes; a run that got
# further would start again from the first
ROUND_CAP = 64

# fixed inputs that do not depend on the seed: the tier-1 named corpus,
# whose model sizes are `model_kib`, a model to export, and the handle model
# whose tampered copy every deep_handles round verifies
NAMED_CORPUS = (
    ("named-222", {"mode": "circle", "vertices": 3,
                   "multiplicities": [2, 2, 2], "dimension": 2}),
    ("named-221", {"mode": "circle", "vertices": 3,
                   "multiplicities": [2, 2, 1], "dimension": 2}),
    ("named-212", {"mode": "circle", "vertices": 3,
                   "multiplicities": [2, 1, 2], "dimension": 2}),
    ("named-torus", {"mode": "circle", "vertices": 0,
                     "multiplicities": [], "dimension": 2}),
    ("named-line-121", {"mode": "line", "vertices": 4,
                        "multiplicities": [1, 2, 1], "dimension": 2}),
    ("named-line-1321", {"mode": "line", "vertices": 5,
                         "multiplicities": [1, 3, 2, 1], "dimension": 2}),
)
# exported once a round by wide_cycle and deep_handles, whose own models
# are too large to expand
EXPORT_SPEC = ("export-2223334", {"mode": "circle", "vertices": 7,
                                  "multiplicities": [2, 2, 2, 3, 3, 3, 4],
                                  "dimension": 2})
TAMPER_SPEC = ("tamper-m7", {
    "mode": "circle", "vertices": 3, "multiplicities": [2, 2, 2],
    "dimension": 7,
    "handles": [{"edge": [1, 1], "sequence": [1, 2, 1]},
                {"edge": [2, 2], "sequence": [2, 1, 1]}]})
# ellipsoid heights of the tampered copy are multiplied by this
TAMPER_FACTOR = 1000

# multisets of multiplicities; the seed picks their order
SURFACE_MULTS = (1, 2, 2, 3, 3, 4, 5)          # tier-1 surface law: a_j <= 5
LINE_INNER_MULTS = (2, 3, 4)                   # path ends are simple edges
HANDLE_LOW_MULTS = (1, 2, 3, 4)                # m = 3, a_j <= 4
HANDLE_HIGH_MULTS = (1, 2, 2, 2)               # m = 7, a_j <= 2
# handle sequences of the corpus handle specs, each on a seeded edge
HANDLE_LOW_SEQS = ((1,), (2,))
HANDLE_HIGH_SEQS = ((1, 0, 1), (0, 2, 1))
WIDE_VERTICES = 64
# deep_handles slots: (dimension, channel of the handle circles in each
# sector of the cycle (2, 2, 2), 0 for none)
DEEP_SLOTS = ((9, (1, 2, 1)), (13, (1, 2, 0)))


def _rng(workload: str, seed: int, round_index: int):
    # string seeds hash the same way in every interpreter
    return random.Random("%s:%d:%d" % (workload, seed, round_index))


def _shuffled(rng, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def _cycle(mults, dimension=2, handles=()) -> dict:
    spec = {"mode": "circle", "vertices": len(mults),
            "multiplicities": list(mults), "dimension": dimension}
    if handles:
        spec["handles"] = [{"edge": list(edge), "sequence": list(seq)}
                           for edge, seq in sorted(handles)]
    return spec


def handle_spec(rng, dimension, mults, sequences) -> dict:
    """A cycle with the multiplicities in seeded order and each handle
    sequence on the first channel of a distinct seeded sector."""
    sectors = rng.sample(range(1, len(mults) + 1), len(sequences))
    return _cycle(_shuffled(rng, mults), dimension,
                  [((j, 1), seq) for j, seq in zip(sectors, sequences)])


def line_spec(rng) -> dict:
    """A path of six vertices: simple end edges, inner ones in seeded
    order."""
    mults = [1] + _shuffled(rng, LINE_INNER_MULTS) + [1]
    return {"mode": "line", "vertices": len(mults) + 1,
            "multiplicities": mults, "dimension": 2}


def wide_cycle_spec(rng) -> dict:
    """WIDE_VERTICES vertices, half of multiplicity 2 and half of 3."""
    half = WIDE_VERTICES // 2
    return _cycle(_shuffled(rng, [2] * half + [3] * (WIDE_VERTICES - half)))


def deep_handle_spec(rng, dimension: int, channels) -> dict:
    """The cycle (2, 2, 2) with one handle circle at every stage on the
    given channel of each sector, the pattern turned round the cycle by a
    seeded number of sectors.  Sequences with two circles at one stage made
    the time of one slot's synthesize range over a factor of ten with the
    stage and sector (see CHANGES.md), and so did the channels; turning
    the pattern keeps its geometry.  All multiplicities are 2: with a third
    channel in a sector the sampled oracle needs up to three of its three
    refinements, and one spec in a few dozen exhausts them."""
    stages = (dimension - 1) // 2
    turn = rng.randrange(len(channels))
    turned = channels[turn:] + channels[:turn]
    return _cycle([2] * len(channels), dimension,
                  [((j, c), (1,) * stages)
                   for j, c in enumerate(turned, 1) if c])


def _task(slot, spec, ops=("synthesize", "verify")):
    return {"slot": slot, "spec": spec, "ops": list(ops)}


def corpus_round(seed: int, r: int) -> list[dict]:
    """Six specs in the categories of the tier-1 corpus, one of them
    exported.  Expansion time grows with the cube of the factor count, and
    the smallest models export in about the time a process takes to fork
    and exit, so the exported spec always has fourteen factors.  The m = 7
    spec has multiplicities up to 2: with 3 or 4, about one spec in twenty
    needs all three refinements of the sampled oracle."""
    rng = _rng("corpus", seed, r)
    return [
        _task("surface", _cycle(_shuffled(rng, SURFACE_MULTS))),
        _task("surface-export",
              _cycle(_shuffled(rng, EXPORT_SPEC[1]["multiplicities"])),
              ("synthesize", "verify", "export")),
        _task("handle-m3", handle_spec(rng, 3, HANDLE_LOW_MULTS,
                                       HANDLE_LOW_SEQS)),
        _task("handle-m7", handle_spec(rng, 7, HANDLE_HIGH_MULTS,
                                       HANDLE_HIGH_SEQS)),
        _task("line", line_spec(rng)),
        _task("torus", dict(NAMED_CORPUS[3][1])),
    ]


def wide_cycle_round(seed: int, r: int) -> list[dict]:
    return [_task("wide", wide_cycle_spec(_rng("wide_cycle", seed, r))),
            {"slot": "export", "export_of": EXPORT_SPEC[0]}]


def deep_handles_round(seed: int, r: int) -> list[dict]:
    rng = _rng("deep_handles", seed, r)
    tasks = [_task("deep-m%d" % m, deep_handle_spec(rng, m, channels))
             for m, channels in DEEP_SLOTS]
    return tasks + [{"slot": "tampered", "tampered_of": TAMPER_SPEC[0]},
                    {"slot": "export", "export_of": EXPORT_SPEC[0]}]


ROUND_BUILDERS = {"corpus": corpus_round, "wide_cycle": wide_cycle_round,
                  "deep_handles": deep_handles_round}


def fixed_specs(workload: str) -> list[tuple[str, dict]]:
    """Seed-independent models built before the timed rounds."""
    out = list(NAMED_CORPUS)
    if workload != "corpus":
        out.append(EXPORT_SPEC)
    if workload == "deep_handles":
        out.append(TAMPER_SPEC)
    return out


def generate(workload: str, seed: int) -> dict:
    """All inputs of one run: the rounds and the fixed models."""
    if workload not in ROUND_BUILDERS:
        raise ValueError("unknown workload %r" % workload)
    build = ROUND_BUILDERS[workload]
    return {"workload": workload, "seed": seed,
            "fixed": [{"name": n, "spec": s} for n, s in fixed_specs(workload)],
            "rounds": [build(seed, r) for r in range(ROUND_CAP)]}
