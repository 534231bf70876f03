"""Brute-force Reeb graph extraction by dense numeric sampling.

Independent cross-check for the certified sweep: sample the plane on a fine
grid, read off connected components of each level slice as index runs, link
runs of neighbouring slices when their index ranges overlap, and recover the
graph from the junctions of the resulting run complex.  No interval
arithmetic and no combinatorial reasoning about the arrangement is involved,
only pointwise float membership tests.

Two sampling refinements keep the brute force honest at realistic grid
sizes.  Radial samples are log-spaced, because circle chains shrink
geometrically toward the inner boundary and every circle occupies a constant
log-width; uniform radii would miss all but the outermost.  Angular slices
get a ladder of extra samples next to each tangency angle, because chord
widths decay like the square root of the angular distance to the tangency
and level components of neighbouring sectors can only be told apart closer
to the vertex than a uniform grid ever samples.

The oracle only measures the region, so its graph is the sweep graph with
every degree-two vertex smoothed away; handle attachments do not change
plane membership.  Structural failures (a disconnected sample complex, a
junction far from every tangency angle, a tangency angle with no junction)
raise ResolutionTooCoarse, and the driver retries with doubled resolution a
bounded number of times.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResolutionTooCoarse
from .graphs import canonical_cyclic_form
from .layout import CircleArrangement, tangency_events
from .numbers import (TurnAngle, certainly_negative, certainly_positive,
                      format_rational, interval_inf, interval_precision,
                      interval_sup, to_interval)
from .poly import (FloatConsts, IvConsts, _factor_value, eval_and_gradient,
                   evaluate_floats)
from .sweep import ReebEdge, ReebGraphResult, ReebVertex

TAU = 2.0 * math.pi

# extra slice offsets on both sides of every tangency angle / wall
_LADDER_TURNS = tuple(Fraction(1, 1 << p) for p in (10, 14, 18, 22, 26, 30))
_LADDER_STEPS = (8, 14, 20, 26)


class _DisjointSets:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def _runs_of(row: np.ndarray) -> list[tuple[int, int]]:
    idx = np.flatnonzero(row)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return [(int(idx[a]), int(idx[b])) for a, b in zip(starts, ends)]


def _overlap_pairs(runs_a: list, runs_b: list):
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


def _circular_gap(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def _place(arr: CircleArrangement, pos) -> str:
    """A sweep position with the part of the arrangement that holds it: its
    sector in circle mode, the strip between two walls in line mode."""
    if arr.mode == "circle":
        if not arr.k:
            return "turn %s" % pos
        return "turn %s (sector %d)" % (pos, math.floor(pos * arr.k) % arr.k)
    walls = arr.abscissae
    strip = min(max(bisect.bisect_right(walls, pos), 1), len(walls) - 1)
    return "x = %s (strip %d, between walls x = %s and x = %s)" % (
        pos, strip, walls[strip - 1], walls[strip])


# ---------------------------------------------------------------------------
# run complex -> graph
# ---------------------------------------------------------------------------

@dataclass
class _Complex:
    """Runs of all slices plus their adjacency, ready for graph readout."""

    slice_positions: list            # Fractions, sorted
    runs: list                       # per slice, list of (lo, hi)
    cyclic: bool

    def extract(self):
        node_of = []
        nodes = []
        for s, slice_runs in enumerate(self.runs):
            ids = []
            for r, _ in enumerate(slice_runs):
                ids.append(len(nodes))
                nodes.append((s, r))
            node_of.append(ids)
        succ = [[] for _ in nodes]
        pred = [[] for _ in nodes]
        dsu = _DisjointSets(len(nodes))
        count = len(self.runs)
        last = count if self.cyclic else count - 1
        for s in range(last):
            t = (s + 1) % count
            for i, j in _overlap_pairs(self.runs[s], self.runs[t]):
                u, v = node_of[s][i], node_of[t][j]
                succ[u].append(v)
                pred[v].append(u)
                dsu.union(u, v)
        if nodes and len({dsu.find(i) for i in range(len(nodes))}) > 1:
            raise ResolutionTooCoarse("sampled region fell apart")
        junction = [len(pred[i]) != 1 or len(succ[i]) != 1
                    for i in range(len(nodes))]
        return nodes, succ, pred, junction


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _circle_slices(arr: CircleArrangement, angular_res: int) -> list[Fraction]:
    positions = {Fraction(2 * i + 1, 2 * angular_res)
                 for i in range(angular_res)}
    for e in tangency_events(arr):
        for step in _LADDER_TURNS:
            positions.add((e.turn.turns + step) % 1)
            positions.add((e.turn.turns - step) % 1)
    return sorted(positions)


def _circle_complex(arr: CircleArrangement, radial_res: int,
                    angular_res: int) -> _Complex:
    slices = _circle_slices(arr, angular_res)
    theta = np.array([float(t) for t in slices]) * TAU
    lo = math.log(float(arr.inner_radius))
    hi = math.log(float(arr.outer_radius))
    radii = np.exp(lo + (np.arange(radial_res) + 0.5) * (hi - lo) / radial_res)
    x = np.cos(theta)[:, None] * radii[None, :]
    y = np.sin(theta)[:, None] * radii[None, :]
    inside = np.ones(x.shape, dtype=bool)
    half_sector = math.pi / arr.k if arr.k else 0.0
    for c in arr.removed_circles():
        d = float(c.d)
        bis = TAU * float(arr.bisector_turn(c.sector))
        cx, cy = d * math.cos(bis), d * math.sin(bis)
        rr = (d * math.sin(half_sector)) ** 2
        inside &= (x - cx) ** 2 + (y - cy) ** 2 > rr
    runs = [_runs_of(inside[s]) for s in range(len(slices))]
    for position, slice_runs in zip(slices, runs):
        if not slice_runs:
            raise ResolutionTooCoarse("empty slice at %s inside the annulus"
                                      % _place(arr, position))
    return _Complex(slice_positions=slices, runs=runs, cyclic=True)


def _line_complex(arr: CircleArrangement, vertical_res: int,
                  horizontal_res: int) -> _Complex:
    ax, ay = arr.ellipse_axes
    spacing = 2 * ax / arr.k
    positions = {-ax + (2 * i + 1) * ax / horizontal_res
                 for i in range(horizontal_res)}
    walls = set(arr.abscissae)
    for wall in walls:
        for p in _LADDER_STEPS:
            step = spacing / (1 << p)
            for cand in (wall - step, wall + step):
                if -ax < cand < ax:
                    positions.add(cand)
    slices = sorted(positions)
    xs = np.array([float(t) for t in slices])
    ys = -float(ay) + (np.arange(vertical_res) + 0.5) * 2 * float(ay) / vertical_res
    fx, fy = float(ax), float(ay)
    inside = ((xs[:, None] / fx) ** 2 + (ys[None, :] / fy) ** 2) < 1.0
    for c in arr.circles:
        cx, cy = float(c.center[0]), float(c.center[1])
        rr = float(c.radius) ** 2
        inside &= (xs[:, None] - cx) ** 2 + (ys[None, :] - cy) ** 2 > rr
    runs = [_runs_of(inside[s]) for s in range(len(slices))]
    first = next((i for i, r in enumerate(runs) if r), None)
    if first is None:
        raise ResolutionTooCoarse("no sample landed inside the ellipse")
    last = max(i for i, r in enumerate(runs) if r)
    for i in range(first, last + 1):
        if not runs[i]:
            raise ResolutionTooCoarse("empty slice at %s inside the ellipse"
                                      % _place(arr, slices[i]))
    return _Complex(slice_positions=slices[first:last + 1],
                    runs=runs[first:last + 1], cyclic=False)


# ---------------------------------------------------------------------------
# graph readout
# ---------------------------------------------------------------------------

def _cluster_positions(members_by_cluster, slices, cyclic):
    out = {}
    for root, members in members_by_cluster.items():
        turns = sorted(slices[s] for s in members)
        if cyclic and float(turns[-1] - turns[0]) > 0.5:
            half = Fraction(1, 2)
            turns = sorted((t + 1 if t < half else t) for t in turns)
        out[root] = turns[len(turns) // 2] % 1 if cyclic else turns[len(turns) // 2]
    return out


def _nearest_event(pos, events, cyclic):
    best = None
    best_gap = None
    for e in events:
        g = _gap(pos, e, cyclic)
        if best_gap is None or g < best_gap:
            best, best_gap = e, g
    return best, (1.0 if best_gap is None else best_gap)


def _read_graph(complex_: _Complex, event_positions: list, tolerance: float,
                arr: CircleArrangement) -> ReebGraphResult:
    mode = arr.mode
    nodes, succ, pred, junction = complex_.extract()
    slices = complex_.slice_positions
    n = len(nodes)

    if not any(junction):
        if mode == "line" or event_positions:
            raise ResolutionTooCoarse("no junctions found despite tangencies")
        return ReebGraphResult(no_vertex_circle=True, vertices=(), edges=())

    cluster = _DisjointSets(n)
    for u in range(n):
        if not junction[u]:
            continue
        for v in succ[u]:
            if junction[v]:
                cluster.union(u, v)

    # chains of regular runs between junction clusters
    raw_edges = []
    visited = [False] * n
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
                visited[w] = True
                interior.append(slices[nodes[w][0]])
                if len(succ[w]) != 1:
                    raise ResolutionTooCoarse("chain lost its thread")
                w = succ[w][0]
            raw_edges.append((cluster.find(u), cluster.find(w), interior))
    for u in range(n):
        if not junction[u] and not visited[u]:
            raise ResolutionTooCoarse("stray cycle of runs")

    members: dict[int, list[int]] = {}
    for u in range(n):
        if junction[u]:
            members.setdefault(cluster.find(u), []).append(nodes[u][0])
    positions = _cluster_positions(members, slices, complex_.cyclic)

    # a chain that never leaves one tangency's neighbourhood is a sampling
    # artifact: the same vertex seen as a merge and a split a few ladder
    # slices apart, with the dividing gap thinner than a grid cell between
    # them; contract it
    roots = sorted(positions)
    slot = {root: i for i, root in enumerate(roots)}
    merger = _DisjointSets(len(roots))
    edges = []
    for a, b, interior in raw_edges:
        ea, ga = _nearest_event(positions[a], event_positions, complex_.cyclic)
        eb, gb = _nearest_event(positions[b], event_positions, complex_.cyclic)
        hugs = (ea is not None and ea == eb and ga <= tolerance
                and gb <= tolerance
                and all(_gap(t, ea, complex_.cyclic) <= tolerance
                        for t in interior))
        if hugs and a != b:
            merger.union(slot[a], slot[b])
        else:
            edges.append((a, b))

    final_members: dict[int, list[int]] = {}
    for root in roots:
        final_members.setdefault(merger.find(slot[root]), []).extend(
            members[root])
    final_positions = _cluster_positions(final_members, slices,
                                         complex_.cyclic)

    def final_of(root):
        return merger.find(slot[root])

    for pos in final_positions.values():
        nearest, gap = _nearest_event(pos, event_positions, complex_.cyclic)
        if gap > tolerance:
            raise ResolutionTooCoarse(
                "junction near %s matches no tangency%s"
                % (_place(arr, pos), "" if nearest is None else
                   "; the nearest is at %s" % _place(arr, nearest)))
    for e in event_positions:
        near = [c for c, pos in final_positions.items()
                if _gap(pos, e, complex_.cyclic) <= tolerance]
        if not near:
            raise ResolutionTooCoarse("no junction near the tangency at %s"
                                      % _place(arr, e))
        if len(near) > 1:
            raise ResolutionTooCoarse("split junction near the tangency "
                                      "at %s" % _place(arr, e))
    for a, b in edges:
        if final_of(a) == final_of(b):
            ea, ga = _nearest_event(positions[a], event_positions,
                                    complex_.cyclic)
            if ga <= tolerance:
                raise ResolutionTooCoarse(
                    "flickering gap near the tangency at %s"
                    % _place(arr, ea))

    order = sorted(final_positions, key=lambda c: final_positions[c])
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
                                       angle=TurnAngle(final_positions[c])))
        else:
            vertices.append(ReebVertex(left, right,
                                       abscissa=final_positions[c]))
    return ReebGraphResult(no_vertex_circle=False, vertices=tuple(vertices),
                           edges=reeb_edges, mode=mode)


def _gap(a, b, cyclic: bool) -> float:
    if cyclic:
        return _circular_gap(float(a), float(b))
    return abs(float(a) - float(b))


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def brute_oracle_reeb(arr: CircleArrangement, radial_res: int = 512,
                      angular_res: int = 256,
                      max_refinements: int = 3) -> ReebGraphResult:
    """Recover the region's Reeb graph from a float sample grid.

    radial_res counts samples across the region (log-spaced radii in circle
    mode, uniform ordinates in line mode), angular_res counts the uniform
    slices of the sweep parameter; ladder samples near tangencies come on
    top.  Resolution doubles on structural failure, at most max_refinements
    times, and the last ResolutionTooCoarse propagates if the budget runs
    out.
    """
    failure: ResolutionTooCoarse | None = None
    for attempt in range(max_refinements + 1):
        rres = radial_res << attempt
        ares = angular_res << attempt
        try:
            if arr.mode == "circle":
                complex_ = _circle_complex(arr, rres, ares)
                events = sorted({e.turn.turns for e in tangency_events(arr)
                                 if e.role.kind == "removed"})
                tol = 2.0 / ares + 2.0 ** -9
            else:
                complex_ = _line_complex(arr, rres, ares)
                touched = set()
                for c in arr.circles:
                    touched.add(c.center[0] - c.radius)
                    touched.add(c.center[0] + c.radius)
                events = sorted(touched | {-arr.ellipse_axes[0],
                                           arr.ellipse_axes[0]})
                tol = float(4 * arr.ellipse_axes[0]) / ares + 2.0 ** -9
            return _read_graph(complex_, events, tol, arr)
        except ResolutionTooCoarse as exc:
            failure = exc
    raise failure


def _tagged_necklace(result: ReebGraphResult):
    """Interleave vertex degrees with the channel counts of the gaps after
    them, tagged so a vertex can never be mistaken for a gap, and reduce to
    the canonical rotation or reflection."""
    items = []
    for degree, gap in zip((v.degree for v in result.vertices),
                           result.cyclic_multiplicities()):
        items.append(("v", degree))
        items.append(("e", gap))
    return canonical_cyclic_form(tuple(items))


def results_match(a: ReebGraphResult, b: ReebGraphResult) -> bool:
    """Decide whether two region-level graphs are isomorphic.

    The sampled oracle may place the angular seam inside a vertex cell,
    which rotates or reflects its listing relative to the sweep.  Circle
    graphs are therefore compared as tagged necklaces and line graphs as
    forward or reversed paths."""
    if a.mode != b.mode or a.no_vertex_circle != b.no_vertex_circle:
        return False
    if a.no_vertex_circle:
        return True
    if len(a.vertices) != len(b.vertices):
        return False
    if a.mode == "line":
        def path(r):
            degrees = [v.degree for v in r.vertices]
            gaps = list(r.cyclic_multiplicities())[:-1]
            out = []
            for i, d in enumerate(degrees):
                out.append(d)
                if i < len(gaps):
                    out.append(gaps[i])
            return out
        pa, pb = path(a), path(b)
        return pa == pb or pa == pb[::-1]
    return _tagged_necklace(a) == _tagged_necklace(b)


def smooth_degree_two(result: ReebGraphResult) -> ReebGraphResult:
    """Erase vertices with exactly one incoming and one outgoing edge,
    concatenating their edges.  This is the region-level view of a graph
    whose degree-two vertices only record handle attachments, which is what
    the brute oracle can see."""
    keep = [not (v.left_channels == 1 and v.right_channels == 1)
            for v in result.vertices]
    if all(keep):
        return result
    if not any(keep):
        if result.mode == "line":
            raise ValueError("a line-mode graph always keeps its folds")
        return ReebGraphResult(no_vertex_circle=True, vertices=(), edges=(),
                               mode=result.mode)
    out_edges: dict[int, list[ReebEdge]] = {}
    for e in result.edges:
        out_edges.setdefault(e.source, []).append(e)

    new_index = {}
    vertices = []
    for i, v in enumerate(result.vertices):
        if keep[i]:
            new_index[i] = len(vertices)
            vertices.append(v)

    edges = []
    for i in sorted(out_edges):
        if not keep[i]:
            continue
        for e in out_edges[i]:
            words = [] if e.fiber.count("x") == 0 else [e.fiber]
            cursor = e
            while not keep[cursor.target]:
                nxt = out_edges[cursor.target][0]
                if nxt.fiber.count("x"):
                    words.append(nxt.fiber)
                cursor = nxt
            fiber = " # ".join(words) if words else e.fiber
            edges.append(ReebEdge(channel=e.channel, source=new_index[i],
                                  target=new_index[cursor.target],
                                  fiber=fiber))
    return ReebGraphResult(no_vertex_circle=False, vertices=tuple(vertices),
                           edges=tuple(edges), mode=result.mode)


# ---------------------------------------------------------------------------
# sign versus membership sampling
# ---------------------------------------------------------------------------

def _radical_inverses(indices: np.ndarray,
                      base: int) -> tuple[np.ndarray, np.ndarray]:
    """Van der Corput radical inverses num/den of positive indices as int64
    arrays: each index's base-`base` digits reversed into num, over den =
    base**(digit count).  Indices up to 2**53 keep den inside int64; a
    non-positive index has no digits and maps to 0/1."""
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


def _halton_axis(indices: np.ndarray, base: int, half: Fraction):
    """Coordinates 2*half*r - half of the radical inverses r = num/den, as
    floats and as exact integer ratios tops[i] / dens[i].  With half = p/q
    the ratio is p*(2*num - den) / (q*den), kept as Python ints so any p and
    q fit; int true division rounds it correctly, exactly as
    `Fraction.__float__` would."""
    num, den = _radical_inverses(indices, base)
    p, q = half.numerator, half.denominator
    tops = [p * t for t in (2 * num - den).tolist()]
    dens = [q * d for d in den.tolist()]
    floats = np.array([t / d for t, d in zip(tops, dens)])
    return floats, tops, dens


def _sample_box(arr: CircleArrangement) -> tuple[Fraction, Fraction]:
    """Half-extents of the sampling box, wide enough to include points
    outside the region on every side."""
    if arr.mode == "circle":
        reach = (1 + arr.halfwidth) * Fraction(9, 8)
        return reach, reach
    ax, ay = arr.ellipse_axes
    return ax * Fraction(9, 8), ay * Fraction(9, 8)


@dataclass(frozen=True)
class MembershipReport:
    """Result of comparing the sign of the model polynomial against direct
    geometric membership on a quasirandom planar sample.

    Points land on the zero slice of every non-planar coordinate, where the
    polynomial equals the plain product of its factors and the region is the
    planar region minus the removed ellipsoid disks.  The sample is a
    base-2/base-3 Halton sequence built from integer digit arrays, each
    coordinate an exact ratio rounded once to float; exact `Fraction`
    points are built only for suspects.  Float screening flags suspects,
    which are then settled with certified interval margins: every factor
    evaluated by `poly._factor_value` on mpmath intervals.  A point whose
    certified margin to any factor boundary falls inside the band is
    exempt."""

    count: int
    inside: int
    band_points: int
    suspects: int
    mismatches: tuple
    band: Fraction

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "points": self.count,
            "inside": self.inside,
            "boundary_band": self.band_points,
            "suspects_resolved_exactly": self.suspects,
            "band": format_rational(self.band),
            "mismatches": list(self.mismatches),
        }


def membership_check(model, count: int = 20000, seed: int = 0,
                     band: Fraction = Fraction(1, 10 ** 9),
                     bits: int = 192) -> MembershipReport:
    """Check sign(P) == region membership at quasirandom planar points.

    The points have Halton indices seed*count + 1 .. (seed + 1)*count in
    bases 2 and 3, scaled to the sampling box.  Radical inverses come from
    int64 digit arrays; each coordinate is an integer ratio converted by
    Python's correctly rounded int division, so it is the float nearest the
    exact point, and `Fraction` points are made only for suspects.  Raises
    ValueError before sampling unless count >= 1, seed >= 0 and
    (seed + 1)*count <= 2**53.

    The float pass evaluates the full polynomial (deficit squares included,
    they vanish on the slice) and, separately, every factor's margin through
    `_factor_value` on floats.  Disagreements and near-boundary points are
    re-decided with the same factor values on `bits`-bit mpmath intervals
    and a certified enclosure of the polynomial; only a certified
    disagreement outside the band counts as a mismatch."""
    if count < 1 or seed < 0 or (seed + 1) * count > 2 ** 53:
        raise ValueError("membership sample needs points >= 1, seed >= 0 and "
                         "(seed + 1) * points <= 2**53, got points %d, seed %d"
                         % (count, seed))
    poly = model.polynomial
    factors = [f for stage in poly.stages for f in stage.factors]
    half_x, half_y = _sample_box(model.arrangement)

    indices = np.arange(seed * count + 1, (seed + 1) * count + 1,
                        dtype=np.int64)
    x, x_tops, x_dens = _halton_axis(indices, 2, half_x)
    y, y_tops, y_dens = _halton_axis(indices, 3, half_y)

    points = np.zeros((poly.num_vars, count))
    points[0], points[1] = x, y
    values = evaluate_floats(poly, points)

    planar = [x, y] + [0.0] * (poly.num_vars - 2)
    margins = np.stack([_factor_value(f, planar, FloatConsts())
                        for f in factors])
    member = np.all(margins > 0.0, axis=0)
    min_abs = np.min(np.abs(margins), axis=0)

    guard = 1e-7
    disagrees = (values > 0.0) != member
    suspect = np.flatnonzero(disagrees | (min_abs < guard))

    band_points = 0
    mismatches = []
    pad = [Fraction(0)] * (poly.num_vars - 2)
    for i in suspect.tolist():
        px = Fraction(x_tops[i], x_dens[i])
        py = Fraction(y_tops[i], y_dens[i])
        with interval_precision(bits):
            point = [to_interval(p) for p in [px, py] + pad]
            bounds = [(interval_inf(v), interval_sup(v)) for v in
                      (_factor_value(f, point, IvConsts()) for f in factors)]
        if any(lo <= band and hi >= -band for lo, hi in bounds):
            band_points += 1
            continue
        certified_member = all(lo > 0 for lo, _ in bounds)
        value_iv, _ = eval_and_gradient(poly, [px, py] + pad, bits)
        if certainly_positive(value_iv):
            positive = True
        elif certainly_negative(value_iv):
            positive = False
        else:
            band_points += 1
            continue
        if positive != certified_member:
            mismatches.append({
                "point": [format_rational(px), format_rational(py)],
                "sign_positive": positive,
                "inside_region": certified_member,
            })

    inside = int(np.count_nonzero(member))
    return MembershipReport(count=count, inside=inside,
                            band_points=band_points,
                            suspects=len(suspect),
                            mismatches=tuple(mismatches), band=band)
