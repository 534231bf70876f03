"""Brute-force Reeb graph extraction by dense numeric sampling.

Independent cross-check for the certified sweep: sample the plane on a
grid, read off connected components of each level slice as index runs, link
runs of neighbouring slices when their index ranges overlap, and recover the
graph from the junctions of the resulting run complex.  No interval
arithmetic is involved and the sweep is never consulted: the samples are
placed from the arrangement's disks alone, and membership is decided only
by pointwise float tests.

Each slice samples uniform log-spaced radii, because circle chains shrink
geometrically toward the inner boundary, and the radii of the sample lemma
below, which the arrangement gives.  Angular slices get a ladder of extra
samples next to each tangency angle, because chord widths decay like the
square root of the angular distance to the tangency.

Sample lemma.  Circle mode: let a disk of sector j have centre at distance
d on the bisector and radius d*s, s = sin(pi/k), c = cos(pi/k).  A ray of
the closed wedge at angle D from the bisector (|D| <= pi/k) meets the open
disk between the radii d(cos D -+ sqrt(s^2 - sin^2 D)), inside the band
[d(1 - s), d(1 + s)].  The band's log-midpoint d*c, the foot of both
tangencies, lies strictly between them when |D| < pi/k, since
(cos D - c)^2 < cos^2 D - c^2 = s^2 - sin^2 D follows from c < cos D.  A
disk of another sector lies in its own closed wedge, which meets this one at
most in a shared ray, where the open disk misses it.  So, with the bands of
sector j sorted between 1 - a and 1 + a, the log-midpoint of every gap lies
in the region on every ray of the closed wedge, and every foot lies in its
disk on every ray of the open wedge: a slice inside the wedge has exactly
one run per channel of the sector, and two such slices overlap channel to
channel only.  Across the shared ray of sectors j and j + 1, a channel of
each meets the other where the intervals the feet cut out of (1 - a, 1 + a)
overlap; the log-midpoints of consecutive entries of 1 - a, the sorted feet
of both sectors, 1 + a, put a sample in every such overlap.  The ladder's
slices 2^-26 turns inside each wedge give every channel a regular run
between the slices beside its two vertices, which keeps the junctions of
the two vertices apart (for k < 2^25).  Line mode reads the same with
ordinates: a disk of strip j, tangent to both walls, meets a vertical line
of the closed strip inside [y - r, y + r] and holds its centre ordinate y
on every line of the open strip; the room of strip j is (-h, h), h the
ellipse's half-height at the strip's outer wall.

In doubles, with u = 2^-53 and every d above 2^-500 so that no square
underflows, the test errs by under 50u(rho + d)^2 (window lemma below),
and on a ray of the closed wedge its value at rho is at least
the squared distance from rho to the band.  At a gap sample that is at least
(gamma/17)^2 (rho + d)^2 (k >= 3) when the gap's ends differ by a relative
gamma, so gamma >= 2^-19 keeps the exact answer; `build_arrangement` keeps
every gap a relative (lambda - 1)/4 >= 2^-19 wide for chains of up to 10^4
circles (lambda from `layout._gap_factor`).  For k <= 10^4 and
angular_res * k <= 2^29 a slice off the vertex rays lies at least 2^-30 turns
from each, with e = 2*pi*2^-30.  That keeps a foot inside its disk, the
value there being -2c d^2 (cos D - c), and a disk of the neighbouring
sector off the slice, by d^2 sin(e) sin(2*pi/k + e) where rho <= 2d: both
exceed 2^-40 d^2 > 450u d^2.  On the ladder slices 2^-30 turns either side
of a vertex a disk's chord stays within a relative 2^-12.8 of its foot, so
neighbouring feet a relative 2^-11 apart leave every midpoint between them
outside both chords.  Line mode's bounds follow the same way, with the
ladder's 2^-26 strip widths off each wall.  A slice exactly on a vertex
ray, which a uniform slice can hit, sees each foot either way; its runs join
the vertex's junction cluster, or form a chain near it that the readout
contracts.  Within these bounds no slice is empty and the run complex links
exactly the channels the region links, at any grid: uniform samples only
add points.  Outside them, on a gap thinner than doubles resolve for
instance, the oracle may raise or read a wrong graph, which `verify`
reports as a disagreement.

Each removed disk is tested only on the samples of its window; outside it
the float test cannot hold, so the mask equals testing every sample.  A
circle-mode disk (centre C at distance d on a bisector, radius r = d*s,
s = sin(pi/k)) fills its sector's wedge only in the band d(1 -+ s); the
window widens the wedge by delta = 2*pi*_WEDGE_PAD/k a side and the band by
the factor 1 + m, m = _RADIAL_PAD.  With D the angle to the bisector,
|P - C|^2 - r^2 = (rho - d cos D)^2 + d^2 (sin^2 D - s^2) is, outside the
window, at least d^2 sin(delta) sin(2*pi/k + delta) beside the wedge (rho
in the band), d^2 (1 - s^2) for D >= pi/2 and 2ms(1 -+ s) d^2 / (1 + m)^2
off the band: at least 1e-3/k^2 * (rho + d)^2.  Rounding of the sample's
turn, cos or sin and product, of the centre, r^2 and the test stays below
50 * 2^-53 * (rho + d)^2 < 6e-15 * (rho + d)^2, so for k <= 10^5 no sample
outside the window tests inside.  In line mode the window is the disk's
bounding box widened by m*r, outside which |P - C|^2 >= (1 + m)^2 r^2.

Slice positions are sorted integer keys over one common denominator den;
the readout works on their doubles key / den, rounded once as
`Fraction.__float__` rounds, and on those of the tangencies, and builds a
Fraction only for a vertex position or a failure message.  Runs are arrays
(row, lo, hi), sorted by row, then lo.  The runs of the next slice that
overlap run u (hi >= lo[u] and lo <= hi[u]) form a range, as a slice's
runs are disjoint and sorted, found by two binary searches over the keys
row * width + sample.  A run with other than one link in and one link out
is a junction.  Chain and loop lemma: walking back from a regular run along
its one predecessor either meets a junction or returns to the start, since a
run reached twice would have two predecessors.  So every regular run lies
on a chain, the regular runs of consecutive slices from a successor of a
junction u to a junction w, linked to nothing else, or on a closed loop of
regular runs linked to nothing outside it.  The components of the graph of
all links are therefore those of the junctions under their direct links and
one link (u, w) per chain, each chain's runs in w's, and each loop on its
own; the readout unites only those and walks a loop only to learn which
runs share it.  Pointer doubling over each regular run's successor finds
every chain's end and length in about log2(length) array steps.  Junctions
linked directly form the clusters, united in link order as the runs are
numbered, which fixes the roots and so the order of edges and vertices.

The membership screen windows its disk factors too.  On the zero slice a
disk factor (circle, or ellipsoid at zero transverse coordinates) is
v = (x - bx)^2 + (y - by)^2 - r^2.  Its window is built in doubles from the
data `_factor_value` lifts through `FloatConsts`: with u = 2^-53, d' the
double of d and c', s', s_k' the cached doubles of the bisector's cos and
sin and of sin(pi/k), each within u of its value (its 64-bit bounds are
far tighter), the centre is bx' = d'c', by' = d's' and the radius
r' = d's_k' scale' (line mode: the doubles of the centre and of r).  Let M
be the largest of 1, the sample box's half-extents and |bx'| + r',
|by'| + r', the sizes of the box ends; it bounds sample coordinates, |bx|,
|by|, r and d / sqrt(2) up to a relative 2^-50, so bx', by' and r' are
within 5uM of bx, by and r.  The window is bx' -+ (r' + 2^-10 M), each end
rounded once more, so it is within 10uM of bx -+ (r + 2^-10 M); outside it
|x - bx| >= r + 2^-10 M - 10uM, so v > 2^-21 M^2 > 2 * MEMBERSHIP_GUARD.
The float value's errors, from the centre (3u relative) and r^2 (5u)
through dx, dy, their squares and two sums, add up to under 70uM^2 <
2^-46 M^2: it stays above MEMBERSHIP_GUARD, positive and not small, and
skipping the point changes no flag or negative count.

The oracle only measures the region, so its graph is the sweep graph with
every degree-two vertex smoothed away; handle attachments do not change
plane membership.  It runs one pass on the grid it is given.  Structural
failures (a disconnected sample complex, a junction far from every
tangency angle, a tangency angle with no junction) raise
ResolutionTooCoarse, with the grid in the message.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .errors import ResolutionTooCoarse
from .graphs import canonical_cyclic_form
from .layout import CircleArrangement, tangency_events
from .numbers import (TurnAngle, format_rational, interval_inf,
                      interval_precision, interval_sup, to_interval)
from .poly import FloatConsts, IvConsts, _factor_value
from .sweep import ReebEdge, ReebGraphResult, ReebVertex

TAU = 2.0 * math.pi

# extra slice offsets on both sides of every tangency angle (2^-b turns)
# and every wall (2^-p strip spacings)
_LADDER_BITS = (10, 14, 18, 22, 26, 30)
_LADDER_STEPS = (8, 14, 20, 26)
# widening of a removed disk's window, in sectors and in radii (docstring)
_WEDGE_PAD = 1 / 16
_RADIAL_PAD = 1 / 64
# membership: float factor values this close to 0 make suspects, which are
# re-decided at this many bits, band points if a margin is in the band
MEMBERSHIP_GUARD = 1e-7
MEMBERSHIP_BAND = Fraction(1, 10 ** 9)
MEMBERSHIP_BITS = 192


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


def _slice_runs(inside: np.ndarray):
    """Runs of True per row as arrays (row, lo, hi), sorted by row, then
    lo: the changes along the rows padded with False pair up as each run's
    first index and the one after it."""
    rows, cols = np.nonzero(np.diff(inside, axis=1, prepend=False,
                                    append=False))
    return rows[0::2], cols[0::2], cols[1::2] - 1


def _slice_doubles(keys: list, den: int) -> np.ndarray:
    """The slice positions keys / den as doubles: int true division rounds
    once, as `Fraction.__float__` does."""
    return np.array([key / den for key in keys])


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
    """The runs of all slices, ready for graph readout.  Slice s sits at
    keys[s] / den, keys sorted, with the double floats[s]; run i is the
    samples lo[i]..hi[i] of slice row[i], runs sorted by row, then lo."""

    keys: list                       # ints over den, sorted
    den: int
    floats: np.ndarray               # `_slice_doubles(keys, den)`
    row: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cyclic: bool

    def position(self, s: int) -> Fraction:
        return Fraction(self.keys[s], self.den)

    def extract(self, arr: CircleArrangement):
        """The junction runs, the cluster root of each junction (-1 for
        other runs; junctions linked directly, united in link order) and
        the raw edges (root, root, first interior slice, interior length)
        in link order; raises ResolutionTooCoarse unless the links connect
        every run (chain and loop lemma, module docstring)."""
        row, n, count = self.row, len(self.row), len(self.keys)
        # run v of slice s + 1 overlaps run u of slice s when hi[v] >= lo[u]
        # and lo[v] <= hi[u]: a range of v, found on keys row * width + col
        width = int(self.hi.max(initial=0)) + 1
        after = (row + 1) % count if self.cyclic else row + 1
        start = np.searchsorted(row * width + self.hi,
                                after * width + self.lo)
        stop = np.searchsorted(row * width + self.lo,
                               after * width + self.hi, "right")
        out = np.maximum(stop - start, 0)
        src = np.repeat(np.arange(n), out)
        dst = np.arange(len(src)) + np.repeat(start + out - np.cumsum(out),
                                              out)
        junction = (out != 1) | (np.bincount(dst, minlength=n) != 1)
        # pointer doubling along each regular run's one successor, until
        # every chain entered from a junction has reached its end junction
        jump = np.where(junction, np.arange(n), start)
        step = (~junction).astype(np.int64)
        enters = junction[src] & ~junction[dst]
        heads = dst[enters]
        while not junction[jump[heads]].all():
            step += step[jump]
            jump = jump[jump]

        sets = _DisjointSets(n)
        direct = junction[src] & junction[dst]
        for u, v in zip(src[direct].tolist(), dst[direct].tolist()):
            sets.union(u, v)
        ends = np.flatnonzero(junction)
        cluster = np.full(n, -1)
        cluster[ends] = [sets.find(u) for u in ends.tolist()]
        for u, w in zip(src[enters].tolist(), jump[heads].tolist()):
            sets.union(u, w)
        # a run's part is its end junction's; -1 on a closed regular loop
        part = np.full(n, -1)
        part[ends] = [sets.find(u) for u in ends.tolist()]
        part = part[jump]
        if n and part[0] < 0:
            same = np.zeros(n, dtype=bool)
            v = 0
            while not same[v]:
                same[v] = True
                v = start[v]
        else:
            same = part == part[:1]
        if not same.all():
            raise ResolutionTooCoarse(
                "sampled region fell apart; a detached part starts at %s"
                % _place(arr, self.position(row[np.argmin(same)])))

        u, v = src[junction[src]], dst[junction[src]]
        a, b, length = cluster[u], cluster[jump[v]], step[v]
        keep = (length > 0) | (a != b)
        return ends, cluster, list(zip(
            a[keep].tolist(), b[keep].tolist(), row[v][keep].tolist(),
            length[keep].tolist()))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _circle_slices(tangency_turns, angular_res: int) -> tuple[list, int]:
    """The uniform turns (2i + 1)/(2 angular_res) and the ladder turns on
    both sides of every tangency, as sorted integer keys over one common
    denominator den: (keys, den)."""
    den = math.lcm(2 * angular_res, *(t.denominator for t in tangency_turns))
    den <<= _LADDER_BITS[-1]
    keys = set(range(den // (2 * angular_res), den, den // angular_res))
    for turn in tangency_turns:
        at = turn.numerator * (den // turn.denominator)
        for bits in _LADDER_BITS:
            step = den >> bits
            keys.update(((at + step) % den, (at - step) % den))
    return sorted(keys), den


def _wedge_rows(turns: np.ndarray, lo: float, hi: float):
    """Index ranges of the sorted turns in [0, 1) in the window lo..hi."""
    lo, hi = lo % 1.0, hi % 1.0
    a, b = np.searchsorted(turns, (lo, hi)).tolist()
    if lo <= hi:
        return ((a, b),)
    return ((a, len(turns)), (0, b))


def _radial_samples(arr: CircleArrangement, res: int) -> np.ndarray:
    """The sorted radii (circle mode) or ordinates (line mode) every slice
    samples: `res` uniform ones, log-spaced across the annulus or evenly
    across the ellipse's vertical axis, and those of the sample lemma
    (module docstring).  Each sector or strip cuts its room at the ends of
    its disks' bands, each two neighbours cut it at the feet of both, and
    every piece gets its midpoint, in log radius in circle mode: a sample
    in every gap, on every foot and between every two neighbouring
    feet."""
    k = arr.k
    if arr.mode == "circle":
        lo = math.log(float(arr.inner_radius))
        hi = math.log(float(arr.outer_radius))
        s = math.sin(math.pi / k) if k else 0.0
        room = [(lo, hi)] * k
        bands = [(c.sector, math.log(float(c.d)) + math.log1p(-s),
                  math.log(float(c.d)) + math.log1p(s))
                 for c in arr.removed_circles()]
    else:
        ax, ay = map(float, arr.ellipse_axes)
        lo, hi = -ay, ay
        # the ellipse's half-height at a strip's outer wall
        walls = np.abs(np.array(arr.abscissae, dtype=float)) / ax
        tops = (ay * np.sqrt(np.maximum(0.0, 1.0 - np.maximum(
            walls[:-1], walls[1:]) ** 2))).tolist()
        room = [(-top, top) for top in tops]
        bands = [(c.sector, float(c.center[1] - c.radius),
                  float(c.center[1] + c.radius)) for c in arr.circles]
    ends = [[] for _ in range(k + 1)]
    for j, a, b in sorted(bands):
        ends[j] += [a, b]
    feet = [[(a + b) / 2 for a, b in zip(e[::2], e[1::2])] for e in ends]
    cuts = []
    for j in range(1, k + 1):
        bottom, top = room[j - 1]
        cuts.append([bottom, *ends[j], top])
        after = j % k + 1 if arr.mode == "circle" else j + 1
        if after <= k:
            cuts.append([bottom, *sorted(feet[j] + feet[after]), top])
    heights = np.sort(np.concatenate(
        [lo + (np.arange(res) + 0.5) * (hi - lo) / res]
        + [np.convolve(cut, (0.5, 0.5), "valid") for cut in cuts]))
    # distinct samples only (np.unique would import numpy.ma on first use)
    heights = heights[np.diff(heights, prepend=-np.inf) > 0]
    return np.exp(heights) if arr.mode == "circle" else heights


def _circle_complex(arr: CircleArrangement, radial_res: int,
                    angular_res: int, tangency_turns) -> _Complex:
    keys, den = _circle_slices(tangency_turns, angular_res)
    turns = _slice_doubles(keys, den)
    theta = turns * TAU
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    radii = _radial_samples(arr, radial_res)
    inside = np.ones((len(keys), len(radii)), dtype=bool)
    s = math.sin(math.pi / arr.k) if arr.k else 0.0
    bisectors = {}
    for c in arr.removed_circles():
        if c.sector not in bisectors:
            bis = TAU * float(arr.bisector_turn(c.sector))
            bisectors[c.sector] = math.cos(bis), math.sin(bis)
        d = float(c.d)
        cos_b, sin_b = bisectors[c.sector]
        cx, cy = d * cos_b, d * sin_b
        rr = (d * s) ** 2
        # only the disk's window (module docstring) can test inside
        c0, c1 = np.searchsorted(radii, (d * (1 - s) / (1 + _RADIAL_PAD),
                                         d * (1 + s) * (1 + _RADIAL_PAD)))
        for r0, r1 in _wedge_rows(turns, (c.sector - _WEDGE_PAD) / arr.k,
                                  (c.sector + 1 + _WEDGE_PAD) / arr.k):
            x = cos_t[r0:r1, None] * radii[None, c0:c1]
            y = sin_t[r0:r1, None] * radii[None, c0:c1]
            inside[r0:r1, c0:c1] &= (x - cx) ** 2 + (y - cy) ** 2 > rr
    return _Complex(keys, den, turns, *_slice_runs(inside), cyclic=True)


def _line_slices(arr: CircleArrangement,
                 horizontal_res: int) -> tuple[list, int]:
    """The uniform abscissae -ax + (2i + 1) ax / horizontal_res and the
    ladder abscissae on both sides of every wall, inside (-ax, ax), as
    sorted integer keys over one common denominator den: (keys, den)."""
    ax = arr.ellipse_axes[0]
    walls = set(arr.abscissae)
    den = math.lcm(horizontal_res * ax.denominator,
                   (arr.k * ax.denominator) << _LADDER_STEPS[-1],
                   *(wall.denominator for wall in walls))
    reach = ax.numerator * (den // ax.denominator)
    keys = {-reach + (2 * i + 1) * reach // horizontal_res
            for i in range(horizontal_res)}
    for wall in walls:
        at = wall.numerator * (den // wall.denominator)
        for p in _LADDER_STEPS:
            step = 2 * reach // (arr.k << p)    # the strip spacing / 2^p
            keys.update(cand for cand in (at - step, at + step)
                        if -reach < cand < reach)
    return sorted(keys), den


def _line_complex(arr: CircleArrangement, vertical_res: int,
                  horizontal_res: int) -> _Complex:
    keys, den = _line_slices(arr, horizontal_res)
    xs = _slice_doubles(keys, den)
    ys = _radial_samples(arr, vertical_res)
    fx, fy = map(float, arr.ellipse_axes)
    inside = ((xs[:, None] / fx) ** 2 + (ys[None, :] / fy) ** 2) < 1.0
    for c in arr.circles:
        cx, cy = float(c.center[0]), float(c.center[1])
        r = float(c.radius)
        reach = r * (1 + _RADIAL_PAD)       # the window (module docstring)
        r0, r1 = np.searchsorted(xs, (cx - reach, cx + reach))
        c0, c1 = np.searchsorted(ys, (cy - reach, cy + reach))
        inside[r0:r1, c0:c1] &= ((xs[r0:r1, None] - cx) ** 2
                                 + (ys[None, c0:c1] - cy) ** 2 > r ** 2)
    return _Complex(keys, den, xs, *_slice_runs(inside), cyclic=False)


# ---------------------------------------------------------------------------
# graph readout
# ---------------------------------------------------------------------------

def _cluster_slices(members_by_cluster, keys, den, cyclic):
    """Each cluster's median slice, read across a seam it straddles;
    slices are numbered in the order of their keys."""
    out = {}
    for root, members in members_by_cluster.items():
        order = sorted(members)
        if cyclic and (keys[order[-1]] - keys[order[0]]) / den > 0.5:
            order.sort(key=lambda s: keys[s] + den if 2 * keys[s] < den
                       else keys[s])
        out[root] = order[len(order) // 2]
    return out


def _gaps(positions: np.ndarray, events: np.ndarray, cyclic: bool):
    """Float distance from every position to every event, in turns round
    the circle when cyclic."""
    d = np.abs(np.subtract.outer(positions, events))
    if cyclic:
        d = d % 1.0
        return np.minimum(d, 1.0 - d)
    return d


def _read_graph(complex_: _Complex, event_positions: list, tolerance: float,
                arr: CircleArrangement) -> ReebGraphResult:
    mode = arr.mode
    ends, cluster, raw_edges = complex_.extract(arr)
    keys, den = complex_.keys, complex_.den
    floats = complex_.floats
    cyclic = complex_.cyclic
    events = np.array([float(e) for e in event_positions])

    if not len(ends):
        if mode == "line" or event_positions:
            raise ResolutionTooCoarse(
                "no junctions found despite tangencies; the first is at %s"
                % _place(arr, event_positions[0]))
        return ReebGraphResult(no_vertex_circle=True, vertices=(), edges=())
    if not event_positions:
        raise ResolutionTooCoarse(
            "junction near %s matches no tangency; there is none"
            % _place(arr, complex_.position(complex_.row[ends[0]])))

    members: dict[int, list[int]] = {}
    for root, s in zip(cluster[ends].tolist(),
                       complex_.row[ends].tolist()):
        members.setdefault(root, []).append(s)
    positions = _cluster_slices(members, keys, den, cyclic)

    # a chain that never leaves one tangency's neighbourhood is a sampling
    # artifact: the same vertex seen as a merge and a split a few ladder
    # slices apart, with the dividing gap thinner than a grid cell between
    # them; contract it
    roots = sorted(positions)
    slot = {root: i for i, root in enumerate(roots)}
    # argmin takes the first of equally near events
    gaps = _gaps(floats[[positions[root] for root in roots]], events, cyclic)
    near, near_gap = gaps.argmin(axis=1), gaps.min(axis=1)
    merger = _DisjointSets(len(roots))
    edges = []
    for a, b, first, length in raw_edges:
        ea, ga = near[slot[a]], near_gap[slot[a]]
        eb, gb = near[slot[b]], near_gap[slot[b]]
        interior = (first + np.arange(length)) % len(keys)
        hugs = (ea == eb and ga <= tolerance and gb <= tolerance
                and bool(np.all(_gaps(floats[interior], events[[ea]], cyclic)
                                <= tolerance)))
        if hugs and a != b:
            merger.union(slot[a], slot[b])
        else:
            edges.append((a, b))

    final_members: dict[int, list[int]] = {}
    for root in roots:
        final_members.setdefault(merger.find(slot[root]), []).extend(
            members[root])
    final = _cluster_slices(final_members, keys, den, cyclic)

    def final_of(root):
        return merger.find(slot[root])

    gaps = _gaps(floats[list(final.values())], events, cyclic)
    for s, e, gap in zip(final.values(), gaps.argmin(axis=1),
                         gaps.min(axis=1)):
        if gap > tolerance:
            raise ResolutionTooCoarse(
                "junction near %s matches no tangency; the nearest is at %s"
                % (_place(arr, complex_.position(s)),
                   _place(arr, event_positions[e])))
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
    left, right = [0] * len(order), [0] * len(order)
    for e in reeb_edges:
        left[e.target] += 1
        right[e.source] += 1
    vertices = []
    for i, c in enumerate(order):
        at = complex_.position(final[c])
        if mode == "circle":
            vertices.append(ReebVertex(left[i], right[i],
                                       angle=TurnAngle(at)))
        else:
            vertices.append(ReebVertex(left[i], right[i], abscissa=at))
    return ReebGraphResult(no_vertex_circle=False, vertices=tuple(vertices),
                           edges=reeb_edges, mode=mode)


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------

def brute_oracle_reeb(arr: CircleArrangement, radial_res: int = 512,
                      angular_res: int = 256) -> ReebGraphResult:
    """Recover the region's Reeb graph from a float sample grid, in one
    pass.

    Every slice samples radial_res uniform radii (log-spaced) in circle
    mode, or ordinates in line mode, and the radii or ordinates the sample
    lemma of the module docstring derives from the arrangement.  The
    slices are angular_res uniform positions of the sweep parameter and
    the ladder next to every tangency.  A junction is matched to a
    tangency within a quarter of a sector or strip, at most 2^-9 turns
    (units of x in line mode).  A structural failure raises
    ResolutionTooCoarse, whose message names the grid.
    """
    if arr.mode == "circle":
        tangencies = tangency_events(arr)
        events = sorted({e.turn.turns for e in tangencies
                         if e.role.kind == "removed"})
        complex_ = _circle_complex(arr, radial_res, angular_res,
                                   {e.turn.turns for e in tangencies})
        width = 1.0 / max(arr.k, 1)
    else:
        ax = arr.ellipse_axes[0]
        events = sorted({c.center[0] + side * c.radius for c in arr.circles
                         for side in (-1, 1)} | {-ax, ax})
        complex_ = _line_complex(arr, radial_res, angular_res)
        width = float(2 * ax) / arr.k
    try:
        return _read_graph(complex_, events, min(2.0 ** -9, width / 4), arr)
    except ResolutionTooCoarse as exc:
        raise ResolutionTooCoarse("%s (oracle grid %dx%d)" % (
            exc, radial_res, angular_res)) from None


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

# digits reversed per table lookup: base**digits entries, about 2k
_CHUNK_DIGITS = {2: 11, 3: 7}


@lru_cache(maxsize=None)
def _digit_tables(base: int):
    """For every q < base**c, c = _CHUNK_DIGITS[base]: q's c digits
    reversed, and q's digit count (0 for q = 0)."""
    c = _CHUNK_DIGITS[base]
    rest = np.arange(base ** c, dtype=np.int64)
    flipped = np.zeros_like(rest)
    length = np.zeros_like(rest)
    for _ in range(c):
        length += rest > 0
        rest, digit = np.divmod(rest, base)
        flipped = flipped * base + digit
    return flipped, length


def _radical_inverses(indices: np.ndarray,
                      base: int) -> tuple[np.ndarray, np.ndarray]:
    """Van der Corput radical inverses num/den of positive indices as int64
    arrays: each index's base-`base` digits reversed into num, over den =
    base**(digit count).  Indices up to 2**53 keep den inside int64; a
    non-positive index has no digits and maps to 0/1.

    The digits go c at a time through `_digit_tables`: with the index
    padded to m chunks, R = sum_j flip(q_j) * base**(c(m-1-j)) over its
    chunks q_j, least significant first, is num * base**(cm - L) for an
    index of L digits, as the padding zeros come last once reversed.  For
    indices up to 2**53, cm <= 55 in base 2 and 35 in base 3, so R fits
    int64."""
    flipped, length = _digit_tables(base)
    c, chunk = _CHUNK_DIGITS[base], len(flipped)
    rest = np.maximum(np.asarray(indices, dtype=np.int64), 0)
    padded = np.zeros_like(rest)
    digits = np.zeros_like(rest)
    top = int(rest.max(initial=0))
    chunks = 0
    while top:
        top //= chunk
        chunks += 1
    for j in range(chunks):
        rest, q = np.divmod(rest, chunk)
        padded = padded * chunk + flipped[q]
        digits = np.where(q > 0, j * c + length[q], digits)
    powers = base ** np.arange(c * chunks + 1, dtype=np.int64)
    return padded // powers[c * chunks - digits], powers[digits]


def _halton_axis(indices: np.ndarray, base: int, half: Fraction):
    """Coordinates 2*half*r - half of the radical inverses r = num/den as
    floats, with the int64 num and den.  With half = p/q a coordinate is
    p*(2*num - den) / (q*den), rounded once as `Fraction.__float__` does:
    by IEEE division of exact doubles when both operands are below 2**53,
    else by Python's correctly rounded int true division."""
    num, den = _radical_inverses(indices, base)
    p, q = half.numerator, half.denominator
    top = 2 * num - den
    if max(p, q) * int(den.max()) < 2 ** 53:
        return (p * top).astype(float) / (q * den).astype(float), num, den
    floats = [p * t / (q * d) for t, d in zip(top.tolist(), den.tolist())]
    return np.array(floats), num, den


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
    base-2/base-3 Halton sequence built from integer digit arrays, reversed
    through lookup tables a chunk of digits at a time, each coordinate an
    exact ratio rounded once to float; exact `Fraction` points are built
    only for suspects.  A float screen of the factor values, each disk
    factor only in its window, a range of doubles from the factor's own
    lifted centre and radius, flags suspects, which are
    settled with `poly._factor_value` on mpmath intervals; sign(P) is the
    parity of the negative factors, so it never underflows.  A point whose
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


def check_membership_sample(count: int, seed: int) -> None:
    """Refuse a sample whose Halton indices would not fit int64 digits."""
    if count < 1 or seed < 0 or (seed + 1) * count > 2 ** 53:
        raise ValueError("membership sample needs points >= 1, seed >= 0 and "
                         "(seed + 1) * points <= 2**53, got points %d, seed %d"
                         % (count, seed))


def _disk_window(f, extent: float):
    """The x-range of a disk factor's membership window (module docstring)
    with extent = max(1, the sample box's half-extents); None for a
    boundary factor.  Centre and radius are doubles of the data
    `_factor_value` lifts through `FloatConsts`."""
    if f.kind not in ("circle", "ellipsoid"):
        return None
    if f.center is not None:
        bx, by = float(f.center[0]), float(f.center[1])
        r = float(f.radius * f.scale)
    else:
        cos_t, sin_t = FloatConsts.turn_cos_sin(f.turn)
        d = float(f.d)
        bx, by = d * cos_t, d * sin_t
        r = d * FloatConsts.sin_half(f.sectors) * float(f.scale)
    w = 2.0 ** -10 * max(extent, abs(bx) + r, abs(by) + r)
    return bx - r - w, bx + r + w


def _membership_screen(poly, extent: float, x: np.ndarray, y: np.ndarray):
    """Rows member (every factor positive), small (a factor below
    MEMBERSHIP_GUARD in size) and suspect (small, or member unlike
    sign(P) > 0) of the points (x, y, 0, ...).  P is the product of its
    factors on the zero slice: sign(P) > 0 when none is 0 (so small) and an
    even number are negative.  Each disk factor is evaluated only in its
    window (module docstring), on the sample sorted by x once."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    pad = [0.0] * (poly.num_vars - 2)
    member, small = np.ones(len(x), dtype=bool), np.zeros(len(x), dtype=bool)
    negative = np.zeros(len(x), dtype=np.int64)
    for f in (f for stage in poly.stages for f in stage.factors):
        window = _disk_window(f, extent)
        a, b = (0, len(x)) if window is None else np.searchsorted(xs, window)
        value = _factor_value(f, [xs[a:b], ys[a:b]] + pad, FloatConsts())
        member[a:b] &= value > 0.0
        small[a:b] |= np.abs(value) < MEMBERSHIP_GUARD
        negative[a:b] += value < 0.0
    screen = np.empty((3, len(x)), dtype=bool)
    screen[:, order] = member, small, small | ((negative % 2 == 0) != member)
    return screen


def membership_check(model, count: int = 20000,
                     seed: int = 0) -> MembershipReport:
    """Check sign(P) == region membership at quasirandom planar points.

    The points have Halton indices seed*count + 1 .. (seed + 1)*count in
    bases 2 and 3, scaled to the sampling box (`_halton_axis`).  Raises
    ValueError before sampling unless count >= 1, seed >= 0 and
    (seed + 1)*count <= 2**53.  `_membership_screen` flags suspects from
    float factor values; each is re-decided once from its factors'
    MEMBERSHIP_BITS-bit mpmath intervals: inside the region when all are
    certainly positive, sign(P) the parity of the certainly negative ones.
    Only a certified disagreement outside MEMBERSHIP_BAND is a mismatch."""
    check_membership_sample(count, seed)
    poly = model.polynomial
    factors = [f for stage in poly.stages for f in stage.factors]
    half_x, half_y = _sample_box(model.arrangement)
    indices = np.arange(seed * count + 1, (seed + 1) * count + 1,
                        dtype=np.int64)
    x, x_num, x_den = _halton_axis(indices, 2, half_x)
    y, y_num, y_den = _halton_axis(indices, 3, half_y)
    member, _, suspect = _membership_screen(
        poly, float(max(1, half_x, half_y)), x, y)
    suspects = np.flatnonzero(suspect).tolist()

    band_points = 0
    mismatches = []
    pad = [Fraction(0)] * (poly.num_vars - 2)
    axes = ((half_x, x_num, x_den), (half_y, y_num, y_den))
    for i in suspects:
        px, py = (half * Fraction(2 * int(num[i]) - int(den[i]), int(den[i]))
                  for half, num, den in axes)
        with interval_precision(MEMBERSHIP_BITS):
            point = [to_interval(p) for p in [px, py] + pad]
            bounds = [(interval_inf(v), interval_sup(v)) for v in
                      (_factor_value(f, point, IvConsts()) for f in factors)]
        if any(lo <= MEMBERSHIP_BAND and hi >= -MEMBERSHIP_BAND
               for lo, hi in bounds):
            band_points += 1
            continue
        # every factor is now certainly positive or certainly negative, and
        # P is their product on the zero slice, so an enclosure of P could
        # not contain 0: no suspect is left undecided past the band test
        certified_member = all(lo > 0 for lo, _ in bounds)
        positive = sum(hi < 0 for _, hi in bounds) % 2 == 0
        if positive != certified_member:
            mismatches.append({
                "point": [format_rational(px), format_rational(py)],
                "sign_positive": positive,
                "inside_region": certified_member,
            })

    return MembershipReport(count=count, inside=int(np.count_nonzero(member)),
                            band_points=band_points, suspects=len(suspects),
                            mismatches=tuple(mismatches),
                            band=MEMBERSHIP_BAND)
