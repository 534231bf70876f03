"""Combinatorial side: target graph specs, validation, canonical forms.

A spec describes a finite multigraph that is to be realised as the Reeb graph
of a map onto a curve.  In ``circle`` mode the graph is a cycle of vertex
classes v_1..v_k with a_j parallel edges joining v_j to v_{j+1} (cyclically);
``vertices = 0`` means the graph is a plain circle with no vertex at all.  In
``line`` mode the graph is a path v_1..v_k with a_j parallel edges between
v_j and v_{j+1}.

Optional handle data decorates each cyclic edge with a sequence of
non-negative integers (one per surgery stage); the sequence length is forced
by the manifold dimension m to m' = floor((m-1)/2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import SpecValidationError, Violation
from .numbers import (
    DEFAULT_PRECISION_BITS,
    TurnAngle,
    check_precision_bits,
    format_rational,
    parse_rational,
)

EdgeId = tuple[int, int]


@dataclass(frozen=True)
class GraphSpec:
    """A requested Reeb graph, exactly as supplied by the user."""

    mode: str
    vertices: int
    multiplicities: tuple[int, ...]
    dimension: int = 2
    handles: tuple[tuple[EdgeId, tuple[int, ...]], ...] = ()
    annulus_halfwidth: Optional[Fraction] = None
    precision_bits: int = DEFAULT_PRECISION_BITS

    @property
    def has_handles(self) -> bool:
        return len(self.handles) > 0

    def handle_map(self) -> dict[EdgeId, tuple[int, ...]]:
        return {edge: seq for edge, seq in self.handles}


def stage_count(dimension: int) -> int:
    """Number of surgery stages supported by manifold dimension m."""
    return (dimension - 1) // 2


@dataclass(frozen=True)
class ValidatedSpec:
    """A spec that passed validation, with handle data densified."""

    mode: str
    vertices: int
    multiplicities: tuple[int, ...]
    dimension: int
    stages: int
    handles: tuple[tuple[EdgeId, tuple[int, ...]], ...]
    annulus_halfwidth: Optional[Fraction]
    precision_bits: int

    @property
    def sector_count(self) -> int:
        if self.mode == "circle":
            return self.vertices
        return max(self.vertices - 1, 0)

    def edge_multiplicity(self, j: int) -> int:
        return self.multiplicities[j - 1]

    def handle_sequence(self, j: int, jprime: int) -> tuple[int, ...]:
        for edge, seq in self.handles:
            if edge == (j, jprime):
                return seq
        return (0,) * self.stages

    def handle_circle_count(self, j: int) -> int:
        """Total handle circles placed in sector j, all channels and stages."""
        total = 0
        for jprime in range(1, self.edge_multiplicity(j) + 1):
            total += sum(self.handle_sequence(j, jprime))
        return total

    def sector_circle_count(self, j: int) -> int:
        return self.edge_multiplicity(j) - 1 + self.handle_circle_count(j)

    def max_sector_circle_count(self) -> int:
        n = self.sector_count
        if n == 0:
            return 0
        return max(self.sector_circle_count(j) for j in range(1, n + 1))


def _pair_violations(mult: tuple[int, ...], cyclic: bool,
                     handles: dict[EdgeId, tuple[int, ...]] | None) -> list[Violation]:
    """Forbid adjacent unit multiplicities unless handle data rescues them.

    An interior vertex only appears in the realisation when at least one
    tangency happens at its angle; with a_j = a_{j+1} = 1 no chain circle
    touches that ray, so either the pair is rejected outright or, when handle
    sequences exist, the two single edges must carry at least one handle
    circle between them.
    """
    out: list[Violation] = []
    k = len(mult)
    pair_range = range(1, k + 1) if cyclic else range(1, k)
    for j in pair_range:
        nxt = j % k + 1 if cyclic else j + 1
        if mult[j - 1] == 1 and mult[nxt - 1] == 1:
            if handles is None:
                out.append(Violation(
                    "AdjacentUnitPair", j,
                    "edges %d and %d both have multiplicity 1" % (j, nxt)))
            else:
                seq_a = handles.get((j, 1), ())
                seq_b = handles.get((nxt, 1), ())
                if not any(seq_a) and not any(seq_b):
                    out.append(Violation(
                        "AllZeroUnitPair", j,
                        "unit edges %d and %d carry no handle circles" % (j, nxt)))
    return out


def validate_cycle_spec(spec: GraphSpec) -> list[Violation]:
    """Check the cycle rules for a circle-mode spec without handle data."""
    out: list[Violation] = []
    if spec.mode != "circle":
        out.append(Violation("WrongMode", 0, "expected circle mode"))
        return out
    k = spec.vertices
    if k == 0:
        if spec.multiplicities:
            out.append(Violation("MultiplicityCountMismatch", 0,
                                 "vertex-free circle takes no multiplicities"))
        if spec.has_handles:
            out.append(Violation("BadHandleEdge", 0,
                                 "vertex-free circle has no edges"))
        return out
    if k < 3:
        out.append(Violation("TooFewVertices", k,
                             "a cyclic graph needs at least 3 vertices"))
        return out
    if len(spec.multiplicities) != k:
        out.append(Violation("MultiplicityCountMismatch", 0,
                             "need %d multiplicities, got %d"
                             % (k, len(spec.multiplicities))))
        return out
    for j, a in enumerate(spec.multiplicities, start=1):
        if a < 1:
            out.append(Violation("NonpositiveMultiplicity", j,
                                 "multiplicity a_%d = %d" % (j, a)))
    if out:
        return out
    handles = spec.handle_map() if spec.has_handles else None
    out.extend(_pair_violations(spec.multiplicities, cyclic=True, handles=handles))
    return out


def validate_handle_spec(spec: GraphSpec) -> list[Violation]:
    """Check handle sequences against the dimension and the edge list."""
    out: list[Violation] = []
    if not spec.has_handles:
        return out
    m = spec.dimension
    if m <= 2:
        out.append(Violation("DimensionTooSmall", m,
                             "handle sequences need dimension > 2"))
        return out
    want = stage_count(m)
    k = spec.vertices
    seen: set[EdgeId] = set()
    for edge, seq in spec.handles:
        j, jprime = edge
        if edge in seen:
            out.append(Violation("DuplicateHandleEdge", j,
                                 "edge (%d,%d) listed twice" % edge))
            continue
        seen.add(edge)
        if not (1 <= j <= k) or jprime < 1 or (
                len(spec.multiplicities) == k and jprime > spec.multiplicities[j - 1]):
            out.append(Violation("BadHandleEdge", j,
                                 "edge (%d,%d) does not exist" % edge))
            continue
        if len(seq) != want:
            out.append(Violation("WrongSequenceLength", j,
                                 "edge (%d,%d): sequence length %d, need %d"
                                 % (j, jprime, len(seq), want)))
        if any(a < 0 for a in seq):
            out.append(Violation("NegativeHandleCount", j,
                                 "edge (%d,%d): negative entry" % edge))
    return out


def _validate_line_spec(spec: GraphSpec) -> list[Violation]:
    out: list[Violation] = []
    k = spec.vertices
    if k < 2:
        out.append(Violation("TooFewVertices", k,
                             "a path needs at least 2 vertices"))
        return out
    if len(spec.multiplicities) != k - 1:
        out.append(Violation("MultiplicityCountMismatch", 0,
                             "need %d multiplicities, got %d"
                             % (k - 1, len(spec.multiplicities))))
        return out
    for j, a in enumerate(spec.multiplicities, start=1):
        if a < 1:
            out.append(Violation("NonpositiveMultiplicity", j,
                                 "multiplicity a_%d = %d" % (j, a)))
    if out:
        return out
    # end vertices are realised as the two fold points of the outer ellipse,
    # which have one level-set component next to them, so the end edges
    # cannot be multiple
    if spec.multiplicities[0] != 1:
        out.append(Violation("EndMultiplicityNotOne", 1,
                             "first multiplicity must be 1 in line mode"))
    if spec.multiplicities[-1] != 1:
        out.append(Violation("EndMultiplicityNotOne", k - 1,
                             "last multiplicity must be 1 in line mode"))
    out.extend(_pair_violations(spec.multiplicities, cyclic=False, handles=None))
    if spec.has_handles:
        out.append(Violation("HandlesUnsupported", 0,
                             "handle sequences are only supported on cycles"))
    return out


def validate_spec(spec: GraphSpec) -> list[Violation]:
    """All validation rules for either mode; empty list means valid."""
    out: list[Violation] = []
    if spec.mode not in ("circle", "line"):
        return [Violation("WrongMode", 0, "mode must be 'circle' or 'line'")]
    if spec.dimension < 2:
        out.append(Violation("DimensionTooSmall", spec.dimension,
                             "manifold dimension must be at least 2"))
    if spec.mode == "circle":
        out.extend(validate_cycle_spec(spec))
        out.extend(validate_handle_spec(spec))
    else:
        out.extend(_validate_line_spec(spec))
    return out


def validated(spec: GraphSpec) -> ValidatedSpec:
    """Validate and normalise; raises SpecValidationError on any violation."""
    violations = validate_spec(spec)
    if violations:
        raise SpecValidationError(violations)
    stages = stage_count(spec.dimension) if spec.has_handles else 0
    handles = tuple(
        (edge, tuple(seq)) for edge, seq in spec.handles if any(seq)
    )
    return ValidatedSpec(
        mode=spec.mode,
        vertices=spec.vertices,
        multiplicities=tuple(spec.multiplicities),
        dimension=spec.dimension,
        stages=stages,
        handles=handles,
        annulus_halfwidth=spec.annulus_halfwidth,
        precision_bits=spec.precision_bits,
    )


# ---------------------------------------------------------------------------
# canonical forms and isomorphism
# ---------------------------------------------------------------------------

def canonical_cyclic_form(seq) -> tuple[int, ...]:
    """Lexicographically smallest rotation of the sequence or its reversal.

    Two cycles of parallel-edge classes are isomorphic exactly when their
    multiplicity sequences agree up to rotation and reflection, so this tuple
    is a complete invariant for the family.
    """
    seq = tuple(seq)
    if not seq:
        return seq
    best = None
    for candidate in (seq, seq[::-1]):
        for shift in range(len(candidate)):
            rotated = candidate[shift:] + candidate[:shift]
            if best is None or rotated < best:
                best = rotated
    return best


def reeb_isomorphic(spec: ValidatedSpec, result) -> bool:
    """Compare a circle-mode spec with a swept graph result.

    ``result`` needs a ``no_vertex_circle`` flag and a
    ``cyclic_multiplicities()`` method returning edge counts between
    consecutive vertices in angular order.
    """
    if spec.mode != "circle":
        raise ValueError("isomorphism comparison is defined for circle mode")
    if spec.vertices == 0:
        return bool(result.no_vertex_circle)
    if result.no_vertex_circle:
        return False
    got = tuple(result.cyclic_multiplicities())
    if len(got) != spec.vertices:
        return False
    return canonical_cyclic_form(got) == canonical_cyclic_form(spec.multiplicities)


def path_isomorphic(spec: ValidatedSpec, result) -> bool:
    """Compare a line-mode spec with a swept graph result, either direction.

    The result's multiplicity list counts outgoing edges per vertex in
    abscissa order, so a path over k vertices ends with a zero.
    """
    if spec.mode != "line":
        raise ValueError("path comparison is defined for line mode")
    if result.no_vertex_circle:
        return False
    got = tuple(result.cyclic_multiplicities())
    if len(got) != spec.vertices or got[-1] != 0:
        return False
    want = tuple(spec.multiplicities)
    return got[:-1] in (want, want[::-1])


# ---------------------------------------------------------------------------
# embedded graph descriptions and the realisability checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddedEdge:
    ends: tuple[int, int]
    sides: tuple[int, int]  # +1: leaves toward increasing angle, -1: decreasing


@dataclass(frozen=True)
class EmbeddedGraphDescription:
    """A finite graph with vertices pinned to target angles on the circle.

    ``sides`` on each edge end records which angular side of its vertex the
    edge leaves toward; this is the combinatorial shadow of an embedding.
    """

    vertex_angles: tuple[tuple[int, TurnAngle], ...]
    edges: tuple[EmbeddedEdge, ...]

    def degree(self, vid: int) -> int:
        return sum((1 for e in self.edges for u in e.ends if u == vid))


@dataclass(frozen=True)
class EmbeddingReport:
    degrees_ok: bool
    bad_degree_vertices: tuple[int, ...]
    angles_injective: bool
    angle_collisions: tuple[tuple[int, int], ...]
    sides_ok: bool
    one_sided_vertices: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.degrees_ok and self.angles_injective and self.sides_ok


def check_embedded_graph(desc: EmbeddedGraphDescription) -> EmbeddingReport:
    """Necessary conditions for realisability by a nice map onto the circle:
    every vertex degree is 1 or 3, vertex angles are pairwise distinct, and
    each degree-3 vertex has incident edges leaving toward both sides."""
    ids = [vid for vid, _ in desc.vertex_angles]
    bad_degree = tuple(v for v in ids if desc.degree(v) not in (1, 3))
    collisions = []
    angles = dict(desc.vertex_angles)
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            if angles[u].turns == angles[v].turns:
                collisions.append((u, v))
    one_sided = []
    for v in ids:
        if desc.degree(v) != 3:
            continue
        sides = set()
        for e in desc.edges:
            for end, side in zip(e.ends, e.sides):
                if end == v:
                    sides.add(side)
        if sides != {1, -1}:
            one_sided.append(v)
    return EmbeddingReport(
        degrees_ok=not bad_degree,
        bad_degree_vertices=bad_degree,
        angles_injective=not collisions,
        angle_collisions=tuple(collisions),
        sides_ok=not one_sided,
        one_sided_vertices=tuple(one_sided),
    )


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

_SPEC_KEYS = {"mode", "vertices", "multiplicities", "dimension",
              "handles", "annulus_halfwidth", "precision_bits"}


def graph_spec_from_json(data) -> GraphSpec:
    """Parse the on-disk spec object; raises ValueError on malformed input."""
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("spec must be a JSON object")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise ValueError("unknown spec fields: %s" % ", ".join(sorted(unknown)))
    for key in ("mode", "vertices", "multiplicities", "dimension"):
        if key not in data:
            raise ValueError("spec field %r is required" % key)
    mode = data["mode"]
    if mode not in ("circle", "line"):
        raise ValueError("mode must be 'circle' or 'line'")
    vertices = data["vertices"]
    if not isinstance(vertices, int) or isinstance(vertices, bool) or vertices < 0:
        raise ValueError("vertices must be a non-negative integer")
    mult = data["multiplicities"]
    if not isinstance(mult, list) or any(
            not isinstance(a, int) or isinstance(a, bool) for a in mult):
        raise ValueError("multiplicities must be a list of integers")
    dim = data["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError("dimension must be an integer")
    handles = []
    for item in data.get("handles", []) or []:
        if set(item) != {"edge", "sequence"}:
            raise ValueError("each handle entry needs exactly 'edge' and 'sequence'")
        j, jprime = item["edge"]
        seq = item["sequence"]
        if any(not isinstance(x, int) or isinstance(x, bool) for x in seq):
            raise ValueError("handle sequence must be a list of integers")
        handles.append(((int(j), int(jprime)), tuple(int(x) for x in seq)))
    halfwidth = data.get("annulus_halfwidth")
    if halfwidth is not None:
        halfwidth = parse_rational(str(halfwidth))
    bits = check_precision_bits(
        data.get("precision_bits", DEFAULT_PRECISION_BITS), "precision_bits")
    return GraphSpec(
        mode=mode,
        vertices=vertices,
        multiplicities=tuple(mult),
        dimension=dim,
        handles=tuple(handles),
        annulus_halfwidth=halfwidth,
        precision_bits=bits,
    )


def graph_spec_to_json(spec) -> dict:
    """Emit a GraphSpec or a ValidatedSpec in the shape graph_spec_from_json
    reads."""
    out = {
        "mode": spec.mode,
        "vertices": spec.vertices,
        "multiplicities": list(spec.multiplicities),
        "dimension": spec.dimension,
    }
    if spec.handles:
        out["handles"] = [
            {"edge": [j, jprime], "sequence": list(seq)}
            for (j, jprime), seq in spec.handles
        ]
    if spec.annulus_halfwidth is not None:
        out["annulus_halfwidth"] = format_rational(spec.annulus_halfwidth)
    out["precision_bits"] = spec.precision_bits
    return out


def embedded_graph_from_json(data) -> EmbeddedGraphDescription:
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    vertices = []
    for item in data["vertices"]:
        vertices.append((int(item["id"]), TurnAngle.parse(item["angle"])))
    edges = []
    for item in data["edges"]:
        u, v = item["ends"]
        su, sv = item["sides"]
        if su not in (1, -1) or sv not in (1, -1):
            raise ValueError("edge sides must be +1 or -1")
        edges.append(EmbeddedEdge(ends=(int(u), int(v)), sides=(su, sv)))
    return EmbeddedGraphDescription(vertex_angles=tuple(vertices),
                                    edges=tuple(edges))
