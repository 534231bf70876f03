"""Output checkers, computed apart from the program.

Nothing here imports `reebforge`.  Each checker reads the spec the
benchmark generated and the files the CLI wrote, and derives what they
must say from the spec or from `model.json` alone.  A checker returns a
list of problems; an empty list means the output is right.  Exit codes are
not checked here: the runner counts an operation whose exit code is not
the expected one as failed, and checks only the outputs of the others.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

MEMBERSHIP_POINTS = 20000          # `reebforge verify` default
ORACLE_GRID = "512x256"            # `reebforge verify` default
EXPORT_RTOL = 1e-9
EXPORT_POINTS = 4


def handle_sequence(spec: dict, sector: int, channel: int) -> tuple:
    for item in spec.get("handles", []):
        if list(item["edge"]) == [sector, channel]:
            return tuple(item["sequence"])
    return ()


def expected_degree(spec: dict) -> int:
    excess = sum(a - 1 for a in spec["multiplicities"])
    if spec["mode"] == "line":
        return 2 + 2 * excess
    circles = sum(sum(item["sequence"]) for item in spec.get("handles", []))
    return 4 + 2 * excess + 2 * circles


def expected_genus(spec: dict) -> int:
    excess = sum(a - 1 for a in spec["multiplicities"])
    return excess if spec["mode"] == "line" else 1 + excess


def factor_count(model: dict) -> int:
    return sum(len(s["factors"]) for s in model["polynomial"]["stages"])


def same_cycle(got, want) -> bool:
    """True when `got` is a rotation of `want` or of its reversal."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return False
    n = len(want)
    for seq in (want, want[::-1]):
        if any(seq[i:] + seq[:i] == got for i in range(max(n, 1))):
            return True
    return False


def check_graph(spec: dict, graph: dict) -> list[str]:
    """The swept graph has the spec's vertices and edge multiplicities, in
    cyclic order up to rotation and reflection, or as a path up to
    reversal in line mode."""
    k = spec["vertices"]
    vertices, edges = graph["vertices"], graph["edges"]
    if spec["mode"] == "circle" and k == 0:
        if not graph["no_vertex_circle"] or vertices or edges:
            return ["torus graph is not a plain circle"]
        return []
    if graph["no_vertex_circle"]:
        return ["graph has no vertex, spec has %d" % k]
    if len(vertices) != k:
        return ["graph has %d vertices, spec has %d" % (len(vertices), k)]
    cyclic = spec["mode"] == "circle"
    counts = [0] * k
    for e in edges:
        step = (e["from"] + 1) % k if cyclic else e["from"] + 1
        if e["to"] != step:
            return ["edge %d->%d skips a vertex" % (e["from"], e["to"])]
        counts[e["from"]] += 1
    want = list(spec["multiplicities"])
    if cyclic:
        if not same_cycle(counts, want):
            return ["cyclic multiplicities %s, spec %s" % (counts, want)]
        return []
    if counts[-1] != 0 or counts[:-1] not in (want, want[::-1]):
        return ["path multiplicities %s, spec %s" % (counts, want)]
    return []


def check_fibers(spec: dict, rows: list) -> list[str]:
    """Every channel's fibre word has one S^j x S^(m-j-1) summand per
    stage-j handle circle the spec puts on it, and is the sphere S^(m-1)
    when it has none."""
    m = spec["dimension"]
    want_channels = {(j, c) for j, a in enumerate(spec["multiplicities"], 1)
                     for c in range(1, a + 1)}
    got_channels = {(r["sector"], r["channel"]) for r in rows}
    if got_channels != want_channels or len(rows) != len(want_channels):
        return ["fibre rows cover %d channels, spec has %d"
                % (len(rows), len(want_channels))]
    problems = []
    for r in rows:
        seq = handle_sequence(spec, r["sector"], r["channel"])
        summands = r["word"].split(" # ")
        if not any(seq):
            if summands != ["S^%d" % (m - 1)]:
                problems.append("channel (%d,%d) word %r, want S^%d"
                                % (r["sector"], r["channel"], r["word"], m - 1))
            continue
        per_stage = [summands.count("S^%d x S^%d" % (j, m - j - 1))
                     for j in range(1, len(seq) + 1)]
        if per_stage != list(seq) or sum(per_stage) != len(summands):
            problems.append("channel (%d,%d) word %r, spec sequence %s"
                            % (r["sector"], r["channel"], r["word"],
                               list(seq)))
    return problems


def check_synthesize(spec: dict, model: dict, cert: dict) -> list[str]:
    problems = []
    m = spec["dimension"]
    if model["polynomial"]["variables"] != m + 1:
        problems.append("%d variables, want %d"
                        % (model["polynomial"]["variables"], m + 1))
    want = expected_degree(spec)
    if model["degree"] != want or cert["degree"] != want:
        problems.append("degree %s/%s, want %d"
                        % (model["degree"], cert["degree"], want))
    if 2 * factor_count(model) != model["degree"]:
        problems.append("degree %d is not twice the %d factors"
                        % (model["degree"], factor_count(model)))
    problems += check_graph(spec, cert["reeb_graph"])
    if m == 2:
        genus = cert.get("euler", {}).get("genus")
        if genus != expected_genus(spec):
            problems.append("genus %s, want %d" % (genus, expected_genus(spec)))
    if spec["mode"] == "circle" and spec["vertices"] > 0:
        problems += check_fibers(spec, cert.get("fibers", {}).get("rows", []))
    return problems


_MEMBERSHIP = re.compile(r"^membership: (\d+) points, (\d+) in band, ok$",
                         re.MULTILINE)


def check_verify(stdout: str) -> list[str]:
    problems = []
    if "oracle: %s match" % ORACLE_GRID not in stdout:
        problems.append("no oracle match at %s" % ORACLE_GRID)
    found = _MEMBERSHIP.search(stdout)
    if not found or int(found.group(1)) != MEMBERSHIP_POINTS:
        problems.append("membership not ok over %d points" % MEMBERSHIP_POINTS)
    if not re.search(r"^verified: ok$", stdout, re.MULTILINE):
        problems.append("no 'verified: ok'")
    return problems


def _rational(text) -> float:
    return float(Fraction(str(text)))


def factored_value(model: dict, x: list) -> float:
    """Float value of the factored polynomial in model.json at point x.

    The factor forms are the model format's definitions: annulus
    (1+a)^2 - |p|^2 and |p|^2 - (1-a)^2, ellipse A^2 B^2 - B^2 x^2 - A^2 y^2,
    circle |p - b|^2 - r^2 (polar centre d at turn t, r = scale d sin(pi/k),
    or explicit centre and scale * radius), ellipsoid the circle form plus
    (r^2/h^2) times the transverse squares.  Stage s multiplies the running
    value by its factors and subtracts the squares of its deficit variables.
    """
    value = 1.0
    for stage in model["polynomial"]["stages"]:
        for f in stage["factors"]:
            value *= _factor_value(f, x)
        value -= math.fsum(x[i] * x[i] for i in stage["deficit_vars"])
    return value


def _factor_value(f: dict, x: list) -> float:
    kind = f["kind"]
    p0, p1 = x[0], x[1]
    if kind == "annulus_outer":
        return (1 + _rational(f["a"])) ** 2 - p0 * p0 - p1 * p1
    if kind == "annulus_inner":
        return p0 * p0 + p1 * p1 - (1 - _rational(f["a"])) ** 2
    if kind == "ellipse_outer":
        ax, ay = (_rational(v) for v in f["axes"])
        return ax * ax * ay * ay - ay * ay * p0 * p0 - ax * ax * p1 * p1
    if kind not in ("circle", "ellipsoid"):
        raise ValueError("unknown factor kind %r" % kind)
    scale = _rational(f.get("scale", "1"))
    if "center" in f:
        bx, by = (_rational(v) for v in f["center"])
        r = _rational(f["radius"]) * scale
    else:
        d = _rational(f["d"])
        angle = 2 * math.pi * _rational(f["turn"])
        bx, by = d * math.cos(angle), d * math.sin(angle)
        r = scale * d * math.sin(math.pi / f["sectors"])
    value = (p0 - bx) ** 2 + (p1 - by) ** 2 - r * r
    if kind == "ellipsoid" and f.get("transverse"):
        wall = r * r / _rational(f["height"]) ** 2
        value += wall * math.fsum(x[i] * x[i] for i in f["transverse"])
    return value


def expansion_terms(expanded: dict, x: list) -> list[float]:
    terms = []
    for mono in expanded["monomials"]:
        term = _rational(mono["coefficient"])
        for xi, e in zip(x, mono["exponents"]):
            term *= xi ** e
        terms.append(term)
    return terms


def export_points(model: dict) -> list[list[float]]:
    """Seeded rational points: planar coordinates over the region and a
    margin around it, transverse ones small."""
    rng = random.Random("export")
    n = model["polynomial"]["variables"]
    points = []
    for _ in range(EXPORT_POINTS):
        x = [rng.randint(-1150, 1150) / 1024 for _ in range(2)]
        x += [rng.randint(-256, 256) / 1024 for _ in range(n - 2)]
        points.append(x)
    return points


def check_export(model: dict, expanded: dict) -> list[str]:
    """The expansion has the model's degree and agrees with the factored
    form at seeded points, relative to the size of its terms there."""
    if expanded["variables"] != model["polynomial"]["variables"]:
        return ["expansion has %d variables, model %d"
                % (expanded["variables"], model["polynomial"]["variables"])]
    top = max((sum(m["exponents"]) for m in expanded["monomials"]), default=-1)
    if top != model["degree"]:
        return ["expansion degree %d, model degree %d" % (top, model["degree"])]
    problems = []
    for x in export_points(model):
        terms = expansion_terms(expanded, x)
        want = factored_value(model, x)
        got = math.fsum(terms)
        scale = max(math.fsum(abs(t) for t in terms), abs(want))
        if not abs(got - want) <= EXPORT_RTOL * scale:
            problems.append("expansion %.17g, factored form %.17g at %s"
                            % (got, want, x))
    return problems
