"""Certified circle placement.

Circle mode: vertices sit at angles 2*pi*j/k on the unit circle and the
ambient region is the annulus 1-a <= |x| <= 1+a.  Every placed circle is
centred on a sector bisector at exact rational distance d from the origin
with radius d*sin(pi/k), which makes it tangent to both rays bounding its
sector; tangency points are where level sets of the angular function merge.

Distances within one sector form a geometric progression whose ratio
exceeds (1+s)/(1-s), s = sin(pi/k); that single inequality makes
consecutive circles disjoint.  Adjacent sectors must not reuse a distance:
two circles at the same d in neighbouring sectors would touch at the shared
tangency foot, so sectors carry a small multiplicative phase 1 + c*delta
with c a proper 3-colouring of the sector cycle.

All chosen parameters are exact rationals.  Predicates that involve
sin(pi/k) are decided against certified dyadic bounds; final clearances are
re-certified in ``certify_disjointness``.

Line mode: the region is bounded by an axis-aligned ellipse, vertices sit at
equally spaced abscissae, and circles are tangent to the two vertical lines
of their strip, stacked vertically with staggered offsets.

Far-pair lemma.  The clearance of two closed disks is the distance between
their centres minus both radii, the distance between the disks when it is
positive.

Circle mode, k >= 4.  A disk of sector j, centred on the bisector at
distance d > 0 with radius d*s, lies in the closed wedge between the rays
at turns j/k and (j+1)/k, and each of its points p has |p| >= d*(1-s).  Let
rho = min_i d_i*(1-s) > 0.  Take disks D and D' whose sectors are neither
equal nor cyclically adjacent.  At least one whole sector separates their
wedges on either side, so the angle phi in [0, pi] between any p in D and
q in D' is at least 2*pi/k.  If phi <= pi/2, then |p - q| is at least the
distance from q to the line through 0 and p, which is
|q|*sin(phi) >= rho*sin(2*pi/k), since sin increases on [0, pi/2] and
2*pi/k <= pi/2.  If phi > pi/2, then |p - q|^2 >= |p|^2 + |q|^2 >= 2*rho^2,
so |p - q| > rho >= rho*sin(2*pi/k).  Hence every such pair has clearance at
least rho*sin(2*pi/k) >= min_i d_i * (1 - s_hi) * 2*s_lo*c_lo, with the
certified dyadic bounds s_lo <= sin(pi/k) <= s_hi and c_lo <= cos(pi/k).
For k <= 3 every two sectors are equal or adjacent.

Line mode.  Let the walls x_0 < ... < x_k increase, w be the least strip
width, and sigma the least slack of a disk to the two walls of its own
strip (0 for the tangent disks built here; negative if a disk crosses a
wall).  A disk of strip j has every point at x <= x_j - sigma, and a disk of
strip j' >= j + 2 has every point at x >= x_(j'-1) + sigma, so the pair has
clearance at least x_(j'-1) - x_j + 2*sigma >= w + 2*sigma: the strips
j+1..j'-1 lie between them.

So ``certify_disjointness`` computes margins only for the pairs in one
sector or strip and in neighbouring ones, with the boundary margins, and
certifies the far pairs by checking the lemma's one bound against epsilon.

Annulus lemma.  The halfwidth a = 1 - 2**-t of ``choose_annulus_halfwidth``
passes the margins of ``place_sector_chain`` in every sector, so
``build_arrangement`` places each spec once.  Write R = (1+s_hi)/(1-s_hi),
n = n_max, S = SAFETY, P = STAGGER_MAX, lam = 1 + 2**-u the
``_gap_factor(n)``, with lam**(n+1) * P**2 <= S, and mu = 1 + (lam-1)/4.
Then (1+a)/(1-a) > R**n * S, so F = fit_hi/fit_lo
= (1+a)(1-s_hi) / ((1-a)(1+s_hi)) > R**(n-1) * S.  A sector of c <= n
circles gets d_i = d_base * q**i * p (i < c), q = R*lam, phase p in [1, P],
where d_base = sqrt(fit_lo*fit_hi) / q**((c-1)/2) * (1 + eta) and
|eta| < 2**-63 + c * 2**-95: the midpoint of a 96-bit interval, truncated
to 64 significant bits, so also d_base > 0.  Dividing by fit_lo and
fit_hi, the inner margin d_1(1-s_hi) >= (1-a)*mu reads
sqrt(F)(1+eta)p >= q**((c-1)/2)*mu and the outer one
d_c(1+s_hi)*mu <= 1+a reads q**((c-1)/2)*p*mu*(1+eta) <= sqrt(F).  Both
follow from F >= q**(c-1) * mu**2 * P**2 * (1+|eta|)**2, and as
q**(c-1) <= R**(n-1) * lam**(n-1) and lam**(n+1) * P**2 <= S, from
mu*(1+|eta|) <= lam.
That holds because lam/mu = 1 + 3e/(1+e) >= 1 + 2e, e = (lam-1)/4, which is
1 + 2**-(u+1) > 1 + 0.025/(n+1) by the choice of u, above 1 + |eta| for
chains of up to 10**12 circles.  Only a halfwidth the spec pins can fail
the margins, and that raises PackingFailure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from mpmath import iv

from .errors import MarginViolation, ModelMismatch, PackingFailure
from .graphs import ValidatedSpec
from .numbers import (
    BOUND_BITS,
    DEFAULT_PRECISION_BITS,
    BoxArray,
    TurnAngle,
    check_precision_bits,
    cos_half_sector_bounds,
    dyadic_significant,
    float_bounds,
    format_rational,
    interval_inf,
    interval_mid,
    interval_precision,
    interval_sup,
    parse_rational,
    sin_half_sector_bounds,
    to_interval,
    turn_sin_cos,
)

SAFETY = Fraction(5, 4)
STAGGER_STEP = Fraction(1, 32)             # per-colour phase increment
STAGGER_MAX = 1 + 2 * STAGGER_STEP
MARGIN_SHIFT = 20                          # epsilon = 2**-20 * feature scale


@dataclass(frozen=True)
class CircleRole:
    """What a placed circle is for.

    kind 'removed': its open disk is removed from the planar region; slot c
    means it separates edge channel c from channel c+1 of its sector.
    kind 'handle': it marks a handle surgery site for channel ``channel`` at
    stage ``stage`` (1-based), ``index`` counting within that stage.
    """

    kind: str
    channel: int
    stage: int = 0
    index: int = 0

    def to_json(self) -> dict:
        if self.kind == "removed":
            return {"kind": "removed", "slot": self.channel}
        return {"kind": "handle", "channel": self.channel,
                "stage": self.stage, "index": self.index}

    @staticmethod
    def from_json(data: dict) -> "CircleRole":
        if data["kind"] == "removed":
            return CircleRole("removed", int(data["slot"]))
        return CircleRole("handle", int(data["channel"]),
                          int(data["stage"]), int(data["index"]))


@dataclass(frozen=True)
class PlacedCircle:
    """One circle, exact.  Circle mode stores the bisector distance d (the
    radius is structurally d*sin(pi/k)); line mode stores a rational center
    and radius directly."""

    sector: int
    role: CircleRole
    d: Optional[Fraction] = None
    center: Optional[tuple[Fraction, Fraction]] = None
    radius: Optional[Fraction] = None


@dataclass(frozen=True)
class CircleArrangement:
    mode: str
    k: int                                  # sectors (strips in line mode)
    halfwidth: Fraction                     # annulus halfwidth a (circle mode)
    circles: tuple[PlacedCircle, ...]
    epsilon: Fraction
    precision_bits: int
    ellipse_axes: Optional[tuple[Fraction, Fraction]] = None
    abscissae: tuple[Fraction, ...] = ()

    # -- circle-mode geometry ------------------------------------------------

    @property
    def inner_radius(self) -> Fraction:
        return 1 - self.halfwidth

    @property
    def outer_radius(self) -> Fraction:
        return 1 + self.halfwidth

    def bisector_turn(self, sector: int) -> Fraction:
        return Fraction(2 * sector + 1, 2 * self.k)

    def vertex_turn(self, j: int) -> Fraction:
        t = Fraction(j, self.k)
        return t - (t.numerator // t.denominator)

    @cached_property
    def _tangencies(self):
        return _build_tangency_events(self)

    def removed_circles(self) -> list[PlacedCircle]:
        return [c for c in self.circles if c.role.kind == "removed"]

    def radius_bounds(self, circle: PlacedCircle) -> tuple[Fraction, Fraction]:
        if circle.radius is not None:
            return circle.radius, circle.radius
        s_lo, s_hi = sin_half_sector_bounds(self.k)
        return circle.d * s_lo, circle.d * s_hi

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "mode": self.mode,
            "a": format_rational(self.halfwidth),
            "k": self.k,
            "circles": [],
            "epsilon": format_rational(self.epsilon),
            "precision_bits": self.precision_bits,
        }
        for c in self.circles:
            item = {"sector": c.sector, "role": c.role.to_json()}
            if c.d is not None:
                item["d"] = format_rational(c.d)
            if c.center is not None:
                item["center"] = [format_rational(c.center[0]),
                                  format_rational(c.center[1])]
                item["radius"] = format_rational(c.radius)
            out["circles"].append(item)
        if self.mode == "line":
            out["ellipse"] = [format_rational(self.ellipse_axes[0]),
                              format_rational(self.ellipse_axes[1])]
            out["abscissae"] = [format_rational(x) for x in self.abscissae]
        return out

    @staticmethod
    def from_json(data: dict) -> "CircleArrangement":
        k, mode = int(data["k"]), data["mode"]
        if mode not in ("circle", "line"):
            raise ValueError("arrangement 'mode' must be 'circle' or 'line', "
                             "got %r" % (mode,))
        if mode == "circle" and data["circles"] and k < 3:
            raise ValueError("a circle arrangement with circles needs at "
                             "least 3 sectors")
        circles = []
        for i, item in enumerate(data["circles"]):
            role = CircleRole.from_json(item["role"])
            sector = int(item["sector"])
            if not 1 <= sector <= k:
                raise ValueError("circle %d has sector %d outside 1..%d"
                                 % (i, sector, k))
            if "d" in item:
                circles.append(PlacedCircle(sector=sector, role=role,
                                            d=parse_rational(item["d"])))
            else:
                cx, cy = item["center"]
                circles.append(PlacedCircle(
                    sector=sector, role=role,
                    center=(parse_rational(cx), parse_rational(cy)),
                    radius=parse_rational(item["radius"])))
        axes = None
        abscissae = tuple(parse_rational(x)
                          for x in data.get("abscissae", []))
        if mode == "line":
            axes = data.get("ellipse")
            if not (isinstance(axes, list) and len(axes) == 2
                    and min(map(parse_rational, axes)) > 0):
                raise ValueError("a line arrangement needs 'ellipse', two "
                                 "positive axes, got %r" % (axes,))
            axes = tuple(map(parse_rational, axes))
            if len(abscissae) != k + 1:
                raise ValueError("a line arrangement of %d strips needs %d "
                                 "abscissae, got %d"
                                 % (k, k + 1, len(abscissae)))
            if any(a >= b for a, b in zip(abscissae, abscissae[1:])):
                raise ValueError("line arrangement abscissae must increase")
        halfwidth = parse_rational(data["a"])
        epsilon = parse_rational(data["epsilon"])
        # every margin is certified against epsilon, so it is not data
        derived = _epsilon_for(halfwidth, circles, k, mode)
        if epsilon != derived:
            raise ModelMismatch(
                "arrangement epsilon %s is not %s, the one its circles give"
                % (format_rational(epsilon), format_rational(derived)))
        return CircleArrangement(
            mode=mode,
            k=k,
            halfwidth=halfwidth,
            circles=tuple(circles),
            epsilon=epsilon,
            precision_bits=check_precision_bits(
                data.get("precision_bits", DEFAULT_PRECISION_BITS),
                "arrangement precision_bits"),
            ellipse_axes=axes,
            abscissae=abscissae,
        )


# ---------------------------------------------------------------------------
# parameter selection
# ---------------------------------------------------------------------------

def _sector_colors(k: int) -> list[int]:
    """Proper colouring of the sector cycle with colours 0,1,2 so adjacent
    sectors never share a phase."""
    if k % 2 == 0:
        return [(j - 1) % 2 for j in range(1, k + 1)]
    return [(j - 1) % 2 for j in range(1, k)] + [2]


@lru_cache(maxsize=None)
def _gap_factor(n_max: int) -> Fraction:
    """Largest 1 + 2**-u whose (n_max+1)-th power stays within the safety
    factor after reserving the stagger budget twice: the phase both stretches
    the chain's reach and eats into the outer clearance."""
    budget = SAFETY / STAGGER_MAX ** 2
    for u in range(1, 80):
        lam = 1 + Fraction(1, 1 << u)
        if lam ** (n_max + 1) <= budget:
            return lam
    raise PackingFailure("no spacing factor fits %d circles" % n_max)


def chain_ratio_bound(k: int) -> Fraction:
    """Certified upper bound for (1+s)/(1-s), the minimal ratio between
    consecutive tangent-circle distances in one sector."""
    s_lo, s_hi = sin_half_sector_bounds(k)
    return (1 + s_hi) / (1 - s_hi)


def choose_annulus_halfwidth(k: int, n_max: int) -> Fraction:
    """Smallest halfwidth of the form 1 - 2**-t wide enough for the deepest
    sector chain: (1+a)/(1-a) must exceed ((1+s)/(1-s))**n_max times the
    safety factor."""
    if k == 0 or n_max == 0:
        return Fraction(1, 2)
    need = chain_ratio_bound(k) ** n_max * SAFETY
    t = 1
    while (1 << (t + 1)) - 1 <= need:
        t += 1
        if t > 4096:
            raise PackingFailure("annulus bound ran away")
    return 1 - Fraction(1, 1 << t)


def place_sector_chain(sector: int, count: int, halfwidth: Fraction,
                       k: int, phase: Fraction = Fraction(1),
                       n_max: Optional[int] = None) -> list[Fraction]:
    """Distances d_1 < ... < d_count for one sector.

    The chain is centred at the geometric mean of the admissible distance
    range and grows by the exact ratio rho_hi * lam, where rho_hi certifiably
    exceeds (1+s)/(1-s) and lam > 1 leaves a uniform relative gap between
    consecutive circles and toward both annulus boundaries.  ``phase``
    multiplies every distance (sector stagger).  Raises PackingFailure when
    the verified margins do not hold.
    """
    if count == 0:
        return []
    if n_max is None:
        n_max = count
    distances = [d * phase for d in _unphased_chain(count, halfwidth, k,
                                                     n_max)]

    # exact containment verification with a quarter-step relative margin
    s_hi = sin_half_sector_bounds(k)[1]
    mu = 1 + (_gap_factor(n_max) - 1) / 4
    if distances[0] * (1 - s_hi) < (1 - halfwidth) * mu:
        raise PackingFailure("inner margin failed in sector %d" % sector)
    if distances[-1] * (1 + s_hi) * mu > 1 + halfwidth:
        raise PackingFailure("outer margin failed in sector %d" % sector)
    return distances


@lru_cache(maxsize=256)
def _unphased_chain(count: int, halfwidth: Fraction, k: int,
                    n_max: int) -> tuple[Fraction, ...]:
    """The distances of a count-circle chain before its sector's phase.  A
    sector enters only through its circle count, so one arrangement
    computes each chain length once."""
    s_hi = sin_half_sector_bounds(k)[1]
    rhat = (1 + s_hi) / (1 - s_hi) * _gap_factor(n_max)
    with interval_precision(BOUND_BITS + 32):
        fit_lo = to_interval(1 - halfwidth) / (1 - to_interval(s_hi))
        fit_hi = to_interval(1 + halfwidth) / (1 + to_interval(s_hi))
        gmean = iv.sqrt(fit_lo * fit_hi)
        anchor = gmean / iv.sqrt(to_interval(rhat) ** (count - 1))
        d_base = dyadic_significant(interval_mid(anchor), BOUND_BITS)
    return tuple(d_base * rhat ** i for i in range(count))


def _radial_roles(spec: ValidatedSpec, j: int) -> list[CircleRole]:
    """Roles of sector j's circles from the inside out: each edge channel's
    handle circles (stage ascending), then the removed disk that separates
    the channel from the next one."""
    roles: list[CircleRole] = []
    a_j = spec.edge_multiplicity(j)
    for channel in range(1, a_j + 1):
        seq = spec.handle_sequence(j, channel)
        for stage in range(1, spec.stages + 1):
            for index in range(1, seq[stage - 1] + 1):
                roles.append(CircleRole("handle", channel, stage, index))
        if channel < a_j:
            roles.append(CircleRole("removed", channel))
    return roles


def _epsilon_for(halfwidth: Fraction, circles: list[PlacedCircle],
                 k: int, mode: str) -> Fraction:
    scale = 2 * halfwidth
    if mode == "line":
        scale = 2  # ellipse x-diameter
    diameters = []
    for c in circles:
        if c.radius is not None:
            diameters.append(2 * c.radius)
        else:
            s_lo, _ = sin_half_sector_bounds(k)
            diameters.append(2 * c.d * s_lo)
    if diameters:
        scale = min(scale, min(diameters))
    return scale / (1 << MARGIN_SHIFT)


def build_arrangement(spec: ValidatedSpec) -> CircleArrangement:
    """Place every circle demanded by a validated spec."""
    if spec.mode == "line":
        return _build_line_arrangement(spec)
    k = spec.vertices
    n_max = spec.max_sector_circle_count()
    colors = _sector_colors(k)
    # a derived halfwidth always fits (annulus lemma, module docstring)
    halfwidth = spec.annulus_halfwidth
    if halfwidth is None:
        halfwidth = choose_annulus_halfwidth(k, n_max)
    if not (0 < halfwidth < 1):
        raise PackingFailure("annulus halfwidth must lie in (0,1)")
    circles: list[PlacedCircle] = []
    for j in range(1, k + 1):
        roles = _radial_roles(spec, j)
        phase = 1 + colors[j - 1] * STAGGER_STEP
        distances = place_sector_chain(j, len(roles), halfwidth, k,
                                       phase=phase, n_max=n_max)
        for role, d in zip(roles, distances):
            circles.append(PlacedCircle(sector=j, role=role, d=d))
    return CircleArrangement(
        mode="circle", k=k, halfwidth=halfwidth, circles=tuple(circles),
        epsilon=_epsilon_for(halfwidth, circles, k, "circle"),
        precision_bits=spec.precision_bits)


# ---------------------------------------------------------------------------
# line mode
# ---------------------------------------------------------------------------

def _build_line_arrangement(spec: ValidatedSpec) -> CircleArrangement:
    k = spec.vertices
    strips = k - 1
    axis_x = Fraction(1)
    width = 2 * axis_x / strips
    radius = width / 2
    abscissae = tuple(-axis_x + width * (j - 1) for j in range(1, k + 1))

    spacing = Fraction(9, 8)
    circles: list[PlacedCircle] = []
    for j in range(1, strips + 1):
        n_j = spec.edge_multiplicity(j) - 1
        if n_j == 0:
            continue
        mid_x = (abscissae[j - 1] + abscissae[j]) / 2
        offset = ((j - 1) % 3) * radius / 16
        for i in range(1, n_j + 1):
            c_y = (Fraction(2 * i - n_j - 1, 2)) * 2 * radius * spacing + offset
            circles.append(PlacedCircle(
                sector=j, role=CircleRole("removed", i),
                center=(mid_x, c_y), radius=radius))

    # smallest power-of-two vertical semi-axis containing every circle's
    # bounding box with a 1/16 functional margin
    axis_y = Fraction(1, 2)
    for _ in range(48):
        ok = True
        for c in circles:
            edge_x = max(abs(c.center[0] - radius), abs(c.center[0] + radius))
            top_y = abs(c.center[1]) + radius
            if edge_x ** 2 / axis_x ** 2 + top_y ** 2 / axis_y ** 2 > Fraction(15, 16):
                ok = False
                break
        if ok:
            break
        axis_y *= 2
    else:
        raise PackingFailure("ellipse could not absorb the circle stacks")

    return CircleArrangement(
        mode="line", k=strips, halfwidth=Fraction(0),
        circles=tuple(circles),
        epsilon=_epsilon_for(Fraction(0), circles, 0, "line"),
        precision_bits=spec.precision_bits,
        ellipse_axes=(axis_x, axis_y),
        abscissae=abscissae)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisjointnessReport:
    """Numeric margins of the near pairs and the boundary, and the count of
    far pairs certified by the lemma of the module docstring."""

    entries: tuple[tuple[str, Fraction], ...]
    min_margin: Fraction
    epsilon: Fraction
    lemma_pairs: int



def certify_disjointness(arr: CircleArrangement) -> DisjointnessReport:
    """Certified clearances between all placed disks and the region boundary.

    Only the pairs in one sector (strip) or in neighbouring ones, cyclically
    in circle mode, get a numeric margin, as do the disks against the
    boundary; every other pair is certified at once by the far-pair lemma
    of the module docstring, whose bound is checked against epsilon.
    Circle mode runs a vectorized outward-rounded float64 pass over its
    margins, then re-certifies any entry whose float bound comes within a
    small factor of epsilon with high-precision intervals; line mode
    encloses each pair margin with intervals.  ``min_margin`` is the least
    numeric margin, or the lemma's bound when that is smaller.  Raises
    MarginViolation when a certified lower bound fails to exceed the
    arrangement's epsilon.
    """
    if not arr.circles:
        return DisjointnessReport((), Fraction(1), arr.epsilon, 0)
    first, second = _near_pairs(arr)
    if arr.mode == "circle":
        entries = _circle_mode_margins(arr, first, second)
    else:
        with interval_precision(arr.precision_bits):
            entries = _line_mode_margins(arr, first, second)
    min_margin = min(m for _, m in entries)
    if min_margin <= arr.epsilon:
        label, margin = next(e for e in entries if e[1] <= arr.epsilon)
        raise MarginViolation(label, margin)
    n = len(arr.circles)
    lemma_pairs = n * (n - 1) // 2 - len(first)
    if lemma_pairs:
        bound = _far_pair_bound(arr)
        if bound <= arr.epsilon:
            raise MarginViolation("pairs two or more %s apart" % (
                "sectors" if arr.mode == "circle" else "strips"), bound)
        min_margin = min(min_margin, bound)
    return DisjointnessReport(tuple(entries), min_margin, arr.epsilon,
                              lemma_pairs)


def _ranges(starts, counts):
    """Concatenation of range(starts[p], starts[p] + counts[p]) over p."""
    ends = np.cumsum(counts)
    return np.repeat(starts + counts - ends, counts) + np.arange(ends[-1])


def _near_pairs(arr: CircleArrangement):
    """Indices i < j, in lexicographic order, of the circle pairs in one
    sector or strip or in neighbouring ones (cyclically in circle mode)."""
    sectors = np.array([c.sector for c in arr.circles])
    order = np.argsort(sectors, kind="stable")
    size = np.bincount(sectors, minlength=arr.k + 2)    # strip k + 1 empty
    start = np.cumsum(size) - size
    sec = sectors[order]
    nxt = sec % arr.k + 1 if arr.mode == "circle" else sec + 1
    pos = np.arange(len(sec))
    later = start[sec] + size[sec] - pos - 1            # same sector, after
    a = order[np.concatenate((np.repeat(pos, later),
                              np.repeat(pos, size[nxt])))]
    b = order[np.concatenate((_ranges(pos + 1, later),
                              _ranges(start[nxt], size[nxt])))]
    first, second = np.minimum(a, b), np.maximum(a, b)
    keep = np.lexsort((second, first))
    return first[keep], second[keep]


def _far_pair_bound(arr: CircleArrangement) -> Fraction:
    """The far-pair lemma's lower bound on the clearance of every pair of
    disks two or more sectors (strips) apart."""
    if arr.mode == "circle":
        s_lo, s_hi = sin_half_sector_bounds(arr.k)
        c_lo, _ = cos_half_sector_bounds(arr.k)
        rho = min(c.d for c in arr.circles) * (1 - s_hi)
        return rho * 2 * s_lo * c_lo
    walls = arr.abscissae
    width = min(hi - lo for lo, hi in zip(walls, walls[1:]))
    slack = min(min(c.center[0] - c.radius - walls[c.sector - 1],
                    walls[c.sector] - c.center[0] - c.radius)
                for c in arr.circles)
    return width + 2 * slack


def _circle_mode_margins(arr: CircleArrangement, first, second):
    n = len(arr.circles)
    d_lo, d_hi = np.array([float_bounds(c.d) for c in arr.circles]).T
    s_lo_f, _ = float_bounds(sin_half_sector_bounds(arr.k)[0])
    _, s_hi_f = float_bounds(sin_half_sector_bounds(arr.k)[1])
    s_box = BoxArray(np.float64(s_lo_f), np.float64(s_hi_f))
    lo_box = BoxArray(*map(np.float64, float_bounds(arr.inner_radius)))
    hi_box = BoxArray(*map(np.float64, float_bounds(arr.outer_radius)))
    d_box = BoxArray(d_lo, d_hi)

    inner = d_box * (BoxArray.exact(1.0) - s_box) - lo_box
    outer = hi_box - d_box * (BoxArray.exact(1.0) + s_box)

    # two bisectors differ by (sector_i - sector_j) mod k sectors, which is
    # 0, 1 or k - 1 for a near pair, so cos of a pair's angle is enclosed
    # once per sector offset o, at turn o/k
    sectors = np.array([c.sector for c in arr.circles])
    offsets = (sectors[first] - sectors[second]) % arr.k
    table_lo = np.ones(arr.k)
    table_hi = np.ones(arr.k)
    with interval_precision(BOUND_BITS):
        for o in set(offsets.tolist()):
            _, cos_iv = turn_sin_cos(Fraction(o, arr.k))
            table_lo[o] = float_bounds(interval_inf(cos_iv))[0]
            table_hi[o] = float_bounds(interval_sup(cos_iv))[1]
    cos_box = BoxArray(table_lo[offsets], table_hi[offsets])

    di = BoxArray(d_lo[first], d_hi[first])
    dj = BoxArray(d_lo[second], d_hi[second])
    dist2 = di.square() + dj.square() - BoxArray.exact(2.0) * di * dj * cos_box
    dist = dist2.sqrt()
    pair = dist - (di + dj) * s_box

    eps_hi = float_bounds(arr.epsilon)[1]
    suspect_cut = eps_hi * 8

    labels = [kind % i for i in range(n) for kind in ("inner:%d", "outer:%d")]
    labels += ["pair:%d:%d" % ij
               for ij in zip(first.tolist(), second.tolist())]
    lows = np.concatenate((np.stack((inner.lo, outer.lo), axis=1).ravel(),
                           pair.lo))
    fast = (np.isfinite(lows) & (lows > suspect_cut)).tolist()
    entries = [(label, Fraction(lo)) for label, lo, ok
               in zip(labels, lows.tolist(), fast) if ok]
    slow = [label for label, ok in zip(labels, fast) if not ok]

    if slow:
        with interval_precision(arr.precision_bits):
            for label in slow:
                entries.append((label, _slow_circle_margin(arr, label)))
    return entries


def _slow_circle_margin(arr: CircleArrangement, label: str) -> Fraction:
    s = iv.sin(iv.pi / arr.k)
    kind, rest = label.split(":", 1)
    if kind == "inner":
        c = arr.circles[int(rest)]
        return interval_inf(to_interval(c.d) * (1 - s) - to_interval(arr.inner_radius))
    if kind == "outer":
        c = arr.circles[int(rest)]
        return interval_inf(to_interval(arr.outer_radius) - to_interval(c.d) * (1 + s))
    i, j = (int(p) for p in rest.split(":"))
    ci, cj = arr.circles[i], arr.circles[j]
    di, dj = to_interval(ci.d), to_interval(cj.d)
    if ci.sector == cj.sector:
        dist = to_interval(abs(ci.d - cj.d))
    else:
        dt = arr.bisector_turn(ci.sector) - arr.bisector_turn(cj.sector)
        _, cos_dt = turn_sin_cos(dt)
        dist = iv.sqrt(di ** 2 + dj ** 2 - 2 * di * dj * cos_dt)
    return interval_inf(dist - (di + dj) * s)


def _line_mode_margins(arr: CircleArrangement, first, second):
    ax, ay = arr.ellipse_axes
    entries = []
    for i, c in enumerate(arr.circles):
        # functional ellipse margin on the disk's bounding box (a certified
        # lower bound for the true clearance functional)
        edge_x = max(abs(c.center[0] - c.radius), abs(c.center[0] + c.radius))
        top_y = abs(c.center[1]) + c.radius
        margin = 1 - edge_x ** 2 / ax ** 2 - top_y ** 2 / ay ** 2
        entries.append(("ellipse:%d" % i, Fraction(margin)))
    for i, j in zip(first.tolist(), second.tolist()):
        ci, cj = arr.circles[i], arr.circles[j]
        dx = ci.center[0] - cj.center[0]
        dy = ci.center[1] - cj.center[1]
        dist = iv.sqrt(to_interval(dx * dx + dy * dy))
        gap = dist - to_interval(ci.radius + cj.radius)
        entries.append(("pair:%d:%d" % (i, j), interval_inf(gap)))
    return entries


# ---------------------------------------------------------------------------
# tangency events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangencyEvent:
    circle_index: int
    sector: int
    role: CircleRole
    turn: TurnAngle
    foot_lo: Fraction
    foot_hi: Fraction


def tangency_events(arr: CircleArrangement) -> tuple[TangencyEvent, ...]:
    """Two events per circle.

    Circle mode: a circle in sector j touches the boundary rays at angles
    2*pi*j/k and 2*pi*(j+1)/k, at distance d*cos(pi/k) from the origin.
    Line mode: a circle in strip j touches the walls x = x_j and x = x_{j+1}
    at height equal to its centre's ordinate.

    Events are sorted by turn, then foot, then circle index.  The list is
    built once per arrangement and kept on it, so the sweep pass, the
    oracle and the plot of one arrangement share it.
    """
    return arr._tangencies


def _build_tangency_events(arr: CircleArrangement):
    """The events `tangency_events` lists.  In circle mode foot_lo is
    d*c_lo with c_lo > 0, so the (turn, d, index) order of the sort is the
    (turn, foot, index) one."""
    keyed = []
    if arr.mode == "circle":
        c_lo, c_hi = (cos_half_sector_bounds(arr.k) if arr.k else (0, 0))
        for idx, c in enumerate(arr.circles):
            foot_lo, foot_hi = c.d * c_lo, c.d * c_hi
            for boundary in (c.sector % arr.k, (c.sector + 1) % arr.k):
                keyed.append(((boundary, c.d, idx), TangencyEvent(
                    circle_index=idx, sector=c.sector, role=c.role,
                    turn=TurnAngle(Fraction(boundary, arr.k)),
                    foot_lo=foot_lo, foot_hi=foot_hi)))
    else:
        for idx, c in enumerate(arr.circles):
            for wall in (arr.abscissae[c.sector - 1], arr.abscissae[c.sector]):
                keyed.append(((wall, idx), TangencyEvent(
                    circle_index=idx, sector=c.sector, role=c.role,
                    turn=TurnAngle(Fraction(0)),  # unused in line mode
                    foot_lo=wall, foot_hi=wall)))
    keyed.sort(key=lambda pair: pair[0])
    return tuple(event for _, event in keyed)
