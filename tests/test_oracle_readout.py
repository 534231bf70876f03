"""The sampled oracle's array readout against the list-based readout it
replaced, kept below as the reference: the same graphs and the same
failures, on seeded random run complexes and on the oracle's own."""

import random
from fractions import Fraction

import numpy as np
import pytest

from reebforge import brute_oracle_reeb, build_arrangement, validated
from reebforge import oracle
from reebforge.errors import ResolutionTooCoarse
from reebforge.numbers import TurnAngle
from reebforge.oracle import _gaps, _place, _read_graph
from reebforge.sweep import ReebEdge, ReebGraphResult, ReebVertex
from conftest import HANDLE_CORPUS, LINE_CORPUS, NAMED_CORPUS, circle_spec, \
    hand_built, line_spec

# ---------------------------------------------------------------------------
# reference: runs as per-slice lists, links by a merge walk, one union-find
# over every link, chains followed run by run
# ---------------------------------------------------------------------------


class Sets:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def overlap_pairs(runs_a, runs_b):
    i = j = 0
    while i < len(runs_a) and j < len(runs_b):
        lo_a, hi_a = runs_a[i]
        lo_b, hi_b = runs_b[j]
        if lo_a <= hi_b and lo_b <= hi_a:
            yield i, j
        if hi_a < hi_b:
            i += 1
        else:
            j += 1


def list_extract(slices, runs, cyclic, arr):
    node_of = []
    nodes = []
    for s, slice_runs in enumerate(runs):
        ids = []
        for r, _ in enumerate(slice_runs):
            ids.append(len(nodes))
            nodes.append((s, r))
        node_of.append(ids)
    succ = [[] for _ in nodes]
    pred = [[] for _ in nodes]
    dsu = Sets(len(nodes))
    count = len(runs)
    last = count if cyclic else count - 1
    for s in range(last):
        t = (s + 1) % count
        for i, j in overlap_pairs(runs[s], runs[t]):
            u, v = node_of[s][i], node_of[t][j]
            succ[u].append(v)
            pred[v].append(u)
            dsu.union(u, v)
    apart = [u for u in range(len(nodes)) if dsu.find(u) != dsu.find(0)]
    if apart:
        raise ResolutionTooCoarse(
            "sampled region fell apart; a detached part starts at %s"
            % _place(arr, slices[nodes[apart[0]][0]]))
    junction = [len(pred[i]) != 1 or len(succ[i]) != 1
                for i in range(len(nodes))]
    return nodes, succ, pred, junction


def list_cluster_slices(members_by_cluster, slices, cyclic):
    out = {}
    half = Fraction(1, 2)
    for root, members in members_by_cluster.items():
        order = sorted(members, key=slices.__getitem__)
        if cyclic and float(slices[order[-1]] - slices[order[0]]) > 0.5:
            order.sort(key=lambda s: slices[s] + 1 if slices[s] < half
                       else slices[s])
        out[root] = order[len(order) // 2]
    return out


def list_read_graph(slices, runs, cyclic, event_positions, tolerance, arr):
    mode = arr.mode
    nodes, succ, pred, junction = list_extract(slices, runs, cyclic, arr)
    floats = np.array([float(t) for t in slices])
    events = np.array([float(e) for e in event_positions])
    n = len(nodes)

    if not any(junction):
        if mode == "line" or event_positions:
            raise ResolutionTooCoarse(
                "no junctions found despite tangencies; the first is at %s"
                % _place(arr, event_positions[0]))
        return ReebGraphResult(no_vertex_circle=True, vertices=(), edges=())

    cluster = Sets(n)
    for u in range(n):
        if not junction[u]:
            continue
        for v in succ[u]:
            if junction[v]:
                cluster.union(u, v)

    raw_edges = []
    for u in range(n):
        if not junction[u]:
            continue
        for v in succ[u]:
            if junction[v]:
                if cluster.find(u) != cluster.find(v):
                    raw_edges.append((cluster.find(u), cluster.find(v), []))
                continue
            w = v
            interior = []
            while not junction[w]:
                interior.append(nodes[w][0])
                w = succ[w][0]
            raw_edges.append((cluster.find(u), cluster.find(w), interior))

    members = {}
    for u in range(n):
        if junction[u]:
            members.setdefault(cluster.find(u), []).append(nodes[u][0])
    positions = list_cluster_slices(members, slices, cyclic)

    roots = sorted(positions)
    slot = {root: i for i, root in enumerate(roots)}
    gaps = _gaps(floats[[positions[root] for root in roots]], events, cyclic)
    near, near_gap = gaps.argmin(axis=1), gaps.min(axis=1)
    merger = Sets(len(roots))
    edges = []
    for a, b, interior in raw_edges:
        ea, ga = near[slot[a]], near_gap[slot[a]]
        eb, gb = near[slot[b]], near_gap[slot[b]]
        hugs = (ea == eb and ga <= tolerance and gb <= tolerance
                and bool(np.all(_gaps(floats[interior], events[[ea]], cyclic)
                                <= tolerance)))
        if hugs and a != b:
            merger.union(slot[a], slot[b])
        else:
            edges.append((a, b))

    final_members = {}
    for root in roots:
        final_members.setdefault(merger.find(slot[root]), []).extend(
            members[root])
    final = list_cluster_slices(final_members, slices, cyclic)

    def final_of(root):
        return merger.find(slot[root])

    gaps = _gaps(floats[list(final.values())], events, cyclic)
    for s, e, gap in zip(final.values(), gaps.argmin(axis=1),
                         gaps.min(axis=1)):
        if gap > tolerance:
            raise ResolutionTooCoarse(
                "junction near %s matches no tangency; the nearest is at %s"
                % (_place(arr, slices[s]), _place(arr, event_positions[e])))
    near_counts = np.count_nonzero(gaps <= tolerance, axis=0).tolist()
    for e, count in zip(event_positions, near_counts):
        if not count:
            raise ResolutionTooCoarse("no junction near the tangency at %s"
                                      % _place(arr, e))
        if count > 1:
            raise ResolutionTooCoarse("split junction near the tangency "
                                      "at %s" % _place(arr, e))
    for a, b in edges:
        if final_of(a) == final_of(b) and near_gap[slot[a]] <= tolerance:
            raise ResolutionTooCoarse(
                "flickering gap near the tangency at %s"
                % _place(arr, event_positions[near[slot[a]]]))

    order = sorted(final, key=final.get)
    index = {c: i for i, c in enumerate(order)}
    reeb_edges = tuple(
        ReebEdge(channel=(0, i), source=index[final_of(a)],
                 target=index[final_of(b)], fiber="S^1")
        for i, (a, b) in enumerate(edges))
    vertices = []
    for i, c in enumerate(order):
        left = sum(1 for e in reeb_edges if e.target == i)
        right = sum(1 for e in reeb_edges if e.source == i)
        if mode == "circle":
            vertices.append(ReebVertex(left, right,
                                       angle=TurnAngle(slices[final[c]])))
        else:
            vertices.append(ReebVertex(left, right,
                                       abscissa=slices[final[c]]))
    return ReebGraphResult(no_vertex_circle=False, vertices=tuple(vertices),
                           edges=reeb_edges, mode=mode)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def outcome(read, *args):
    """A readout's graph, or the type and message of what it raised."""
    try:
        result = read(*args)
    except (ResolutionTooCoarse, ValueError, IndexError) as exc:
        return type(exc).__name__, str(exc)
    return "graph", result.to_json(), result


def runs_of(mask):
    runs, lo = [], None
    for i, cell in enumerate(mask + [False]):
        if cell and lo is None:
            lo = i
        elif not cell and lo is not None:
            runs.append((lo, i - 1))
            lo = None
    return runs


def random_case(rng):
    """Slices at random positions whose masks mostly repeat or change in
    one cell from slice to slice, so regular chains, junctions and loops
    all occur, with tangencies at some of the junction slices."""
    cyclic = rng.random() < 0.6
    den = rng.choice([8, 24, 96, 97, 1024])
    count = rng.randint(1, 14)
    if cyclic:
        keys = sorted(rng.sample(range(den), min(count, den)))
    else:
        keys = sorted(rng.sample(range(-den + 1, den), count))
    slices = [Fraction(key, den) for key in keys]
    width = rng.randint(3, 12)
    mask = None
    runs = []
    for _ in slices:
        draw = rng.random()
        if mask is None or draw < 0.1:
            density = rng.choice([0.3, 0.6, 0.9])
            mask = [rng.random() < density for _ in range(width)]
        elif draw < 0.5:
            mask = list(mask)
            at = rng.randrange(width)
            mask[at] = not mask[at]
        runs.append(runs_of(mask))
    try:
        nodes, _, _, junction = list_extract(slices, runs, cyclic,
                                             ARRANGEMENTS[cyclic])
        rows = sorted({nodes[u][0] for u in range(len(nodes))
                       if junction[u]})
    except ResolutionTooCoarse:
        rows = list(range(len(slices)))
    events = set()
    if rows and rng.random() > 0.05:
        for s in rng.sample(rows, rng.randint(1, len(rows))):
            nudge = Fraction(rng.randint(-3, 3), rng.choice([64, 1000]))
            events.add((slices[s] + nudge) % 1 if cyclic
                       else slices[s] + nudge)
    if not cyclic and not events:
        events.add(Fraction(rng.randint(-den, den), den))
    return (slices, runs, cyclic, sorted(events),
            rng.choice([0.01, 0.1, 0.3]))


ARRANGEMENTS = {
    True: build_arrangement(validated(circle_spec((2, 2, 2)))),
    False: build_arrangement(validated(line_spec((1, 2, 1)))),
}


@pytest.mark.parametrize("chunk", range(8))
def test_random_complexes_read_as_the_list_readout(chunk):
    rng = random.Random(chunk)
    for _ in range(300):
        slices, runs, cyclic, events, tolerance = random_case(rng)
        arr = ARRANGEMENTS[cyclic]
        old = outcome(list_read_graph, slices, runs, cyclic, events,
                      tolerance, arr)
        new = outcome(_read_graph, hand_built(slices, runs, cyclic), events,
                      tolerance, arr)
        if old == ("ValueError", "attempt to get argmin of an empty "
                                 "sequence"):
            # junctions but no tangency: now named as such
            assert not events
            assert new[0] == "ResolutionTooCoarse"
            assert new[1].endswith("matches no tangency; there is none")
            continue
        assert new[:2] == old[:2]
        if old[0] == "graph":
            assert new[2] == old[2]


def test_random_complexes_reach_every_outcome():
    """The random cases above read graphs, the mended path and every
    failure of the readout."""
    rng = random.Random(0)
    seen = set()
    for _ in range(300):
        slices, runs, cyclic, events, tolerance = random_case(rng)
        old = outcome(list_read_graph, slices, runs, cyclic, events,
                      tolerance, ARRANGEMENTS[cyclic])
        seen.add(old[0] if old[0] != "ResolutionTooCoarse"
                 else old[1].split(" near")[0].split(";")[0])
    assert seen >= {"graph", "ValueError", "sampled region fell apart",
                    "junction", "no junction", "split junction",
                    "flickering gap", "no junctions found despite "
                                      "tangencies"}


CASES = NAMED_CORPUS + HANDLE_CORPUS + LINE_CORPUS + [
    ("wide64", circle_spec(tuple(random.Random(64).sample(
        [2] * 32 + [3] * 32, 64))))]


@pytest.mark.parametrize("grid", [(4, 4), (16, 16), (64, 32), (512, 256)],
                         ids=lambda g: "%dx%d" % g)
@pytest.mark.parametrize("name,spec", CASES, ids=[name for name, _ in CASES])
def test_oracle_reads_as_the_list_readout(monkeypatch, name, spec, grid):
    arr = build_arrangement(validated(spec))
    read = oracle._read_graph
    pairs = []

    def both(complex_, events, tolerance, arr):
        runs = [[] for _ in complex_.keys]
        for s, lo, hi in zip(complex_.row.tolist(), complex_.lo.tolist(),
                             complex_.hi.tolist()):
            runs[s].append((lo, hi))
        slices = [complex_.position(s) for s in range(len(runs))]
        pairs.append((outcome(read, complex_, events, tolerance, arr),
                      outcome(list_read_graph, slices, runs,
                              complex_.cyclic, events, tolerance, arr)))
        return read(complex_, events, tolerance, arr)

    monkeypatch.setattr(oracle, "_read_graph", both)
    brute_oracle_reeb(arr, *grid)
    (new, old), = pairs
    assert new[:2] == old[:2]
    assert new[2] == old[2]
