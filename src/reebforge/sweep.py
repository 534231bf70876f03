"""Reeb graph extraction by one certified event sweep.

The composed Morse function on the constructed hypersurface has its level
components in bijection with the connected components of region-and-ray
intersections in the plane, so the whole graph can be read off the planar
arrangement.  Away from vertex angles a ray meets the region in one interval
per edge channel (the boundary segment minus removed-disk chords); at a
vertex angle every circle of the two adjacent sectors is tangent to the ray,
the open disks miss it, and the level set is a single interval, which is the
merge event that produces the graph vertex.

``verify_morse`` is the one certified pass over an arrangement: it lists the
tangency events, reads each sector's bands (removed chords and the handle
circles of each channel) and with them the channel counts on the sector
bisectors (in line mode: the chord counts on the strip midlines and the
tangencies at the walls).  Its ``SweepCertificate`` keeps all of this; the
Reeb graph, and the Euler report and the fibre table against the spec, are
read from it without another crossing decision.  ``sweep_reeb``,
``euler_check`` and ``fiber_counts_check`` run the pass and derive one of
them.  A vertex angle without a tangency is recorded by the pass and raised
by ``verify_morse`` alone.

Half-sector rule.  Let k >= 3 and let a circle sit on its sector's bisector
at distance d > 0 with radius d*sin(pi/k).  A ray from the origin h
half-sectors from that bisector, h an integer in (-k, k], crosses the open
disk iff h = 0, touches the circle iff |h| = 1, and misses the closed disk
otherwise.

Proof.  Put alpha = pi*h/k, the angle between the ray and the bisector.
When cos(alpha) > 0 the foot of the perpendicular from the centre lies on
the ray, at distance d*|sin(alpha)| from the centre; otherwise the origin is
the ray's closest point, at distance d.  In the second case d > d*sin(pi/k),
so the ray misses.  In the first, |alpha| = pi*|h|/k lies in [0, pi/2),
where sin increases strictly, so d*|sin(alpha)| is below, equal to or above
the radius as |h| is 0, 1 or at least 2; and |h| <= 1 does fall in this case,
since pi/k < pi/2.  The ray crosses, touches or misses as that distance is
below, equal to or above the radius.

Every swept ray lies at a vertex angle j/k or a bisector (2j+1)/(2k) of a
turn, and a circle of sector s in 1..k has its bisector at (2s+1)/(2k), so
h = 2j - 2s - 1 or 2j - 2s modulo 2k.  A vertex ray (h odd) crosses no open
disk and touches exactly the circles of its two adjacent sectors, whose
tangencies ``tangency_events`` lists: the level set there is one interval.
A bisector ray (h even) crosses exactly the circles of its own sector, so
sector j has one channel more than removed disks, whose chords the exact
radial check of ``_sector_bands`` keeps disjoint.  No crossing is decided
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    CountMismatch,
    DegenerateEvent,
    EulerMismatch,
    MissingSingularAngle,
)
from .graphs import ValidatedSpec
from .layout import (CircleArrangement, PlacedCircle, TangencyEvent,
                     tangency_events)
from .numbers import (
    TurnAngle,
    format_rational,
    sin_half_sector_bounds,
)
from .poly import fiber_word


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReebVertex:
    left_channels: int
    right_channels: int
    angle: Optional[TurnAngle] = None
    abscissa: Optional[Fraction] = None

    @property
    def degree(self) -> int:
        return self.left_channels + self.right_channels

    def position_label(self) -> str:
        if self.angle is not None:
            return self.angle.label()
        return format_rational(self.abscissa)


@dataclass(frozen=True)
class ReebEdge:
    channel: tuple[int, int]  # (sector or strip, index from the inside out)
    source: int               # vertex index
    target: int
    fiber: str


@dataclass(frozen=True)
class ReebGraphResult:
    no_vertex_circle: bool
    vertices: tuple[ReebVertex, ...]
    edges: tuple[ReebEdge, ...]
    mode: str = "circle"

    def cyclic_multiplicities(self) -> tuple[int, ...]:
        """Edge count leaving each vertex toward the next, in sweep order."""
        counts = [0] * len(self.vertices)
        for e in self.edges:
            counts[e.source] += 1
        return tuple(counts)

    def to_json(self) -> dict:
        vertices = []
        for v in self.vertices:
            item: dict = {"degree": v.degree}
            if v.angle is not None:
                item["angle"] = v.angle.label()
            else:
                item["abscissa"] = format_rational(v.abscissa)
            vertices.append(item)
        return {
            "no_vertex_circle": self.no_vertex_circle,
            "vertices": vertices,
            "edges": [
                {"channel": list(e.channel), "from": e.source,
                 "to": e.target, "fiber": e.fiber}
                for e in self.edges
            ],
        }


@dataclass(frozen=True)
class EulerReport:
    chi_from_saddles: int
    chi_from_region: int
    genus: int

    def to_json(self) -> dict:
        return {"chi_from_saddles": self.chi_from_saddles,
                "chi_from_region": self.chi_from_region,
                "genus": self.genus}


@dataclass(frozen=True)
class FiberRow:
    sector: int
    channel: int
    counts: tuple[int, ...]
    word: str
    sample_angle: str

    def to_json(self) -> dict:
        return {"sector": self.sector, "channel": self.channel,
                "counts": list(self.counts), "word": self.word,
                "sample_angle": self.sample_angle}


@dataclass(frozen=True)
class FiberTable:
    rows: tuple[FiberRow, ...]

    def to_json(self) -> dict:
        return {"rows": [r.to_json() for r in self.rows]}


# ---------------------------------------------------------------------------
# radial band structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorBands:
    sector: int
    removed: tuple[int, ...]                       # ascending distance
    handle_channels: tuple[tuple[int, ...], ...]   # per channel, ascending
    channels: int


def _sector_bands(arr: CircleArrangement, sector: int,
                  members: list[tuple[int, PlacedCircle]]) -> SectorBands:
    """Channel bands of one sector, from its (index, circle) members in
    radial order alone; consecutive chords are certified disjoint by exact
    comparison against the sine bounds, so band membership is
    unambiguous."""
    s_hi = sin_half_sector_bounds(arr.k)[1]
    members = sorted(members, key=lambda ic: ic[1].d)
    for (_, inner), (_, outer) in zip(members, members[1:]):
        if not inner.d * (1 + s_hi) < outer.d * (1 - s_hi):
            raise DegenerateEvent("radial bands overlap in sector %d" % sector)
    removed = [i for i, c in members if c.role.kind == "removed"]
    buckets: list[list[int]] = [[] for _ in range(len(removed) + 1)]
    band = 0
    for i, c in members:
        if c.role.kind == "removed":
            band += 1
        else:
            buckets[band].append(i)
    return SectorBands(sector, tuple(removed),
                       tuple(tuple(b) for b in buckets), len(removed) + 1)


def _line_counts(arr: CircleArrangement, strip: int) -> int:
    """Region intervals on the vertical line at a strip's midpoint: one more
    than the removed chords it crosses; exact rational comparisons."""
    mid = (arr.abscissae[strip - 1] + arr.abscissae[strip]) / 2
    hits = 0
    for i, c in enumerate(arr.circles):
        gap = abs(mid - c.center[0])
        if gap == c.radius:
            raise DegenerateEvent("tangency on a strip midline")
        if (gap < c.radius) != (c.sector == strip):
            raise DegenerateEvent("crossing disagrees with strip attribution "
                                  "for circle %d at the strip-%d midline"
                                  % (i, strip))
        hits += gap < c.radius
    return hits + 1


def _stage_counts(arr: CircleArrangement, circle_indices: tuple[int, ...],
                  dimension: int) -> list[int]:
    stages = (dimension - 1) // 2 if dimension > 2 else 0
    counts = [0] * stages
    for i in circle_indices:
        stage = arr.circles[i].role.stage
        if not 1 <= stage <= stages:
            raise ValueError("handle circle %d has stage %d outside the %d "
                             "stages of dimension %d"
                             % (i, stage, stages, dimension))
        counts[stage - 1] += 1
    return counts


# ---------------------------------------------------------------------------
# the certified pass and what is derived from it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCertificate:
    """Everything one certified pass decided about an arrangement.

    ``to_json`` reports the Morse data.  The graph, the Euler report and the
    fibre table are derived from the other fields without deciding another
    crossing."""

    events: tuple[TangencyEvent, ...]
    saddle_count: int
    handle_event_count: int
    sector_channel_counts: tuple[int, ...]
    vertices_single_interval: bool          # proved, or checked at walls
    folds_nondegenerate: bool
    arrangement: CircleArrangement
    bands: tuple[SectorBands, ...]          # per sector; empty in line mode
    # singular positions in sweep order: vertex angles j (turn j/k) that
    # carry a tangency, or walls j (at abscissae[j - 1]) with both ends
    vertex_indices: tuple[int, ...]
    # first vertex angle or interior wall without a tangency
    missing_angle: Optional[int]

    def to_json(self) -> dict:
        return {
            "events": len(self.events),
            "saddle_count": self.saddle_count,
            "handle_event_count": self.handle_event_count,
            "sector_channel_counts": list(self.sector_channel_counts),
            "vertices_single_interval": self.vertices_single_interval,
            "folds_nondegenerate": self.folds_nondegenerate,
        }

    def _channels(self, j: int) -> int:
        """Channel count of sector j, cyclically, or of strip j (0 beyond
        the two ends)."""
        arr, counts = self.arrangement, self.sector_channel_counts
        if arr.mode == "circle":
            return counts[(j - 1) % arr.k]
        return counts[j - 1] if 1 <= j <= arr.k else 0

    def reeb_graph(self, dimension: int = 2) -> ReebGraphResult:
        """The Reeb graph of the angular (circle mode) or abscissa (line
        mode) function."""
        arr = self.arrangement
        line = arr.mode == "line"
        if not line and not self.events:
            return ReebGraphResult(no_vertex_circle=True, vertices=(), edges=())
        vertices = tuple(
            ReebVertex(left_channels=self._channels(j - 1),
                       right_channels=self._channels(j),
                       angle=None if line else TurnAngle(arr.vertex_turn(j)),
                       abscissa=arr.abscissae[j - 1] if line else None)
            for j in self.vertex_indices)
        edges = []
        for pos, j in enumerate(self.vertex_indices):
            for index in range(1, self._channels(j) + 1):
                stages = () if line else _stage_counts(
                    arr, self.bands[j - 1].handle_channels[index - 1],
                    dimension)
                edges.append(ReebEdge(channel=(j, index), source=pos,
                                      target=(pos + 1) % len(vertices),
                                      fiber=fiber_word(dimension, stages)))
        return ReebGraphResult(no_vertex_circle=False, vertices=vertices,
                               edges=tuple(edges), mode=arr.mode)

    def euler_report(self, spec: ValidatedSpec) -> EulerReport:
        """Euler characteristic of the constructed surface two ways: Morse
        counting of the sweep's saddles against doubling of the planar
        region the spec prescribes, whose holes are its sum of a_j - 1.
        Surface case only."""
        if spec.dimension != 2:
            raise ValueError("Euler bookkeeping is defined for surfaces")
        holes = sum(a - 1 for a in spec.multiplicities)
        if self.arrangement.mode == "circle":
            chi_sweep = -self.saddle_count
            chi_region = 2 * (0 - holes)         # annulus minus holes, doubled
            genus = 1 + holes
        else:
            chi_sweep = 2 - self.saddle_count    # two ellipse folds
            chi_region = 2 * (1 - holes)         # disk minus holes, doubled
            genus = holes
        if chi_sweep != chi_region:
            raise EulerMismatch("saddle count gives chi=%d, region doubling "
                                "gives chi=%d" % (chi_sweep, chi_region))
        return EulerReport(chi_from_saddles=chi_sweep,
                           chi_from_region=chi_region, genus=genus)

    def fiber_table(self, spec: ValidatedSpec) -> FiberTable:
        """Handle-circle chords per edge channel at each sector's bisector,
        compared with the spec's handle sequences, with the connected-sum
        words as fiber metadata."""
        arr = self.arrangement
        if arr.mode != "circle":
            raise ValueError("fiber counting applies to circle arrangements")
        rows = []
        for bands in self.bands:
            j = bands.sector
            if bands.channels != spec.edge_multiplicity(j):
                raise CountMismatch("sector %d shows %d channels, spec says %d"
                                    % (j, bands.channels,
                                       spec.edge_multiplicity(j)))
            for channel in range(1, bands.channels + 1):
                got = tuple(_stage_counts(
                    arr, bands.handle_channels[channel - 1], spec.dimension))
                want = spec.handle_sequence(j, channel)
                if len(want) < len(got):
                    want = want + (0,) * (len(got) - len(want))
                if got != want:
                    raise CountMismatch(
                        "channel (%d,%d) counts %s, spec says %s"
                        % (j, channel, got, want))
                rows.append(FiberRow(
                    sector=j, channel=channel, counts=got,
                    word=fiber_word(spec.dimension, got),
                    sample_angle=TurnAngle(arr.bisector_turn(j)).label()))
        return FiberTable(rows=tuple(rows))


def _sweep_pass(arr: CircleArrangement) -> SweepCertificate:
    """The certified sweep behind ``verify_morse``, which records rather
    than raises a vertex angle or wall without a tangency and a circle
    around the origin.  Circle mode reads its crossings from the half-sector
    rule of the module docstring."""
    events = tangency_events(arr)
    k = arr.k
    missing = None
    folds = True
    bands: tuple[SectorBands, ...] = ()
    if arr.mode == "circle":
        if k:
            # center distance exceeds the radius: d > d*sin(pi/k)
            s_hi = sin_half_sector_bounds(k)[1]
            folds = all(c.d * (1 - s_hi) > 0 for c in arr.circles)
        event_turns = {e.turn.turns for e in events}
        vertices = []
        for j in range(1, k + 1):
            if arr.vertex_turn(j) in event_turns:
                vertices.append(j)
            elif missing is None:
                missing = j
        vertices.sort(key=arr.vertex_turn)
        members: list[list[tuple[int, PlacedCircle]]] = [[] for _ in range(k)]
        for i, c in enumerate(arr.circles):
            members[c.sector - 1].append((i, c))
        bands = tuple(_sector_bands(arr, j, members[j - 1])
                      for j in range(1, k + 1))
        counts = tuple(b.channels for b in bands)
    else:
        counts = tuple(_line_counts(arr, j) for j in range(1, k + 1))
        # the two ellipse folds are always singular; an interior wall is
        # singular when a circle touches it, and no removed disk may cross it
        vertices = [1]
        for j in range(2, k + 1):
            gaps = [abs(arr.abscissae[j - 1] - c.center[0]) - c.radius
                    for c in arr.circles]
            if any(g < 0 for g in gaps):
                raise DegenerateEvent("removed disk crosses wall %d" % j)
            if 0 in gaps:
                vertices.append(j)
            elif missing is None:
                missing = j
        vertices.append(k + 1)
    return SweepCertificate(
        events=events,
        saddle_count=sum(1 for e in events if e.role.kind == "removed"),
        handle_event_count=sum(1 for e in events if e.role.kind == "handle"),
        sector_channel_counts=counts,
        vertices_single_interval=True,
        folds_nondegenerate=folds,
        arrangement=arr,
        bands=bands,
        vertex_indices=tuple(vertices),
        missing_angle=missing,
    )


def verify_morse(arr: CircleArrangement) -> SweepCertificate:
    """The certified sweep pass, with its Morse data checked: both
    tangencies of every circle are nondegenerate folds (the origin,
    respectively the strip walls, lie strictly off the circle), every vertex
    angle carries at least one tangency.  The saddle count is twice the
    removed-disk count by construction: ``tangency_events`` lists two events
    per circle."""
    cert = _sweep_pass(arr)
    if not cert.folds_nondegenerate:
        raise DegenerateEvent("circle surrounds the origin")
    if cert.missing_angle is not None:
        raise MissingSingularAngle(cert.missing_angle)
    return cert


def sweep_reeb(arr: CircleArrangement, dimension: int = 2) -> ReebGraphResult:
    """Extract the Reeb graph of the angular (circle mode) or abscissa
    (line mode) function from a certified arrangement."""
    return _sweep_pass(arr).reeb_graph(dimension)


def euler_check(arr: CircleArrangement, spec: ValidatedSpec) -> EulerReport:
    """Euler characteristic two ways over a Morse-verified sweep; see
    ``SweepCertificate.euler_report``.  Surface case only."""
    return verify_morse(arr).euler_report(spec)


def fiber_counts_check(arr: CircleArrangement,
                       spec: ValidatedSpec) -> FiberTable:
    """Count handle-circle chords per edge channel at each sector's bisector
    and compare with the spec's handle sequences; emit the connected-sum
    words as fiber metadata."""
    return _sweep_pass(arr).fiber_table(spec)
