"""Defining polynomials for the constructed hypersurfaces.

A model polynomial is a product of quadratic factors with square-deficit
blocks folded in per stage:

    P_s = P_{s-1} * (product of stage-s factors) - (sum of new squares).

Stage 0 holds the planar region factors (annulus or ellipse boundary plus
one factor per removed disk, each positive outside its disk).  Each later
stage multiplies in ellipsoid factors (positive outside the removed
ellipsoids) and appends fresh variables whose squares are subtracted; the
zero set doubles the region into a closed hypersurface and each ellipsoid
removal attaches a handle.

Factors keep exact rational data (distances, turns, heights); the handful
of irrational constants (cos/sin of rational turns, sin(pi/k)) are produced
by pluggable constant pools, so one evaluation code, `_factor_value`, runs on
plain float64 arrays, outward-rounded interval arrays, mpmath intervals,
dual numbers of mpmath intervals (`_Dual`, whose partials are the gradient of
`eval_and_gradient`), and sparse monomial dictionaries, which give each
factor's terms for the expansion; the dual and term pools are `_Lifted`
scalar pools.  The membership oracle evaluates its factor margins, and
`DiskValues` the factors over the ellipsoids' disks, through the same code.

The expansion (`_expand`) multiplies those terms in an integer kernel.
Monomials are int64 keys, the exponents packed in mixed radix, so a
product of monomials is a sum of keys.  The support of every partial
product is found first, from the keys alone, and one past EXPANSION_GUARD
monomials is refused before any coefficient is made.  Multiplying by a
factor is then one multiply-add per term of the factor into the next
support.  An exact model keeps integer numerators over a common
denominator.  Otherwise each coefficient is a ball: integers mid and rad
with the coefficient in [(mid - rad)/den, (mid + rad)/den], den a power of
two.  The rounding is outward (midpoint-radius arithmetic; Moore, Kearfott
and Cloud, SIAM 2009):
* a factor coefficient's mpmath enclosure [lo, hi] has dyadic ends; with
  L = floor(lo 2^s), H = ceil(hi 2^s), m = floor((L + H)/2) and
  r = H - m >= m - L, it lies in [(m - r)/2^s, (m + r)/2^s];
* if |x - a| <= rho and |y - b| <= sigma, then |xy - ab| <=
  rho |b| + (rho + |a|) sigma, the radius the kernel adds, exactly, at
  scale 1/(den 2^s); sums add mids and radii exactly;
* with M = q 2^s + e and 0 <= e < 2^s, a value within R of M at scale
  1/(den 2^s) lies within (e + R)/2^s <= ceil((e + R)/2^s) of q at
  scale 1/den;
* refining den by 2^k shifts mid and rad left, and a deficit -x_i^2 adds
  -den/den, both exactly.
So each ball holds the coefficient of the product of every choice of
factor polynomials inside their enclosures, the model's among them.

Which factor each stage holds, with which transverse and deficit
variables, is decided once, by `staged_polynomial`, from the spec, the
arrangement and the ellipsoid heights.  So in `model.json` only `spec`,
`arrangement` and the ellipsoid `height`s are data; the rest of
`polynomial`, `sites`, `degree`, `dimension` and `ambient_dimension` are
derived.  Heights are checked data, not just stored: on load,
`SurfaceModel.from_json` re-certifies each with `certify_ellipsoid_inside`
as `synthesize` did, rebuilds the rest, and rejects a file that disagrees.
Both read one `DiskValues` batch, the sites' disk covers concatenated in
staging order, which evaluates each factor once over the cells of every
site past its stage; so a model makes one Python evaluation per factor and
one per site (its cell mask), while the array work stays sites x factors x
cells, as every height is certified on its own disk's cells.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Optional, Sequence

import numpy as np
from mpmath import iv
from mpmath.libmp import (from_man_exp, mpf_add, mpf_shift, round_nearest,
                          to_float)

from .errors import ExpansionTooLarge, HeightFailure, ModelMismatch, NoFactors
from .graphs import (
    ValidatedSpec,
    graph_spec_from_json,
    graph_spec_to_json,
    validated,
)
from .layout import CircleArrangement, build_arrangement
from .numbers import (
    BOUND_BITS,
    DEFAULT_PRECISION_BITS,
    BoxArray,
    check_precision_bits,
    decimal_ball,
    dyadic_significant,
    float_bounds,
    format_rational,
    interval_inf,
    interval_precision,
    interval_sup,
    parse_rational,
    sin_half_sector_bounds,
    to_interval,
    turn_cos_sin_mpi,
    turn_sin_cos,
)

EXPANSION_GUARD = 10 ** 6
# fixed-point bits of an interval expansion beyond the working precision,
# which keep coefficients far below 1 to many proved digits
EXPANSION_GUARD_BITS = 64
DOUBLE_MAX = Fraction(sys.float_info.max)


@dataclass(frozen=True)
class Factor:
    """One quadratic factor.

    annulus_outer: (1+a)^2 - x0^2 - x1^2
    annulus_inner: x0^2 + x1^2 - (1-a)^2
    circle: |x - b|^2 - r^2, either polar (center at distance d on the
        bisector of a sector of k, radius scale*d*sin(pi/k)) or rational
        (explicit center/radius, line mode)
    ellipse_outer: A^2 B^2 - B^2 x0^2 - A^2 x1^2
    ellipsoid: |x - b|^2 - r^2 + (r^2/h^2) (sum of transverse squares),
        the form of |x-b|^2/r^2 + |y|^2/h^2 - 1 cleared to unit planar
        scale; deep stages then keep factor values inside float range
    """

    kind: str
    a: Optional[Fraction] = None
    d: Optional[Fraction] = None
    turn: Optional[Fraction] = None
    sectors: int = 0
    scale: Fraction = Fraction(1)
    center: Optional[tuple[Fraction, Fraction]] = None
    radius: Optional[Fraction] = None
    axes: Optional[tuple[Fraction, Fraction]] = None
    height: Optional[Fraction] = None
    transverse: tuple[int, ...] = ()

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.a is not None:
            out["a"] = format_rational(self.a)
        if self.d is not None:
            out["d"] = format_rational(self.d)
            out["turn"] = format_rational(self.turn)
            out["sectors"] = self.sectors
        if self.scale != 1:
            out["scale"] = format_rational(self.scale)
        if self.center is not None:
            out["center"] = [format_rational(self.center[0]),
                             format_rational(self.center[1])]
            out["radius"] = format_rational(self.radius)
        if self.axes is not None:
            out["axes"] = [format_rational(self.axes[0]),
                           format_rational(self.axes[1])]
        if self.height is not None:
            out["height"] = format_rational(self.height)
        if self.transverse:
            out["transverse"] = list(self.transverse)
        return out

    @staticmethod
    def from_json(data: dict) -> "Factor":
        return Factor(
            kind=data["kind"],
            a=parse_rational(data["a"]) if "a" in data else None,
            d=parse_rational(data["d"]) if "d" in data else None,
            turn=parse_rational(data["turn"]) if "turn" in data else None,
            sectors=int(data.get("sectors", 0)),
            scale=parse_rational(data["scale"]) if "scale" in data else Fraction(1),
            center=tuple(parse_rational(c) for c in data["center"])
            if "center" in data else None,
            radius=parse_rational(data["radius"]) if "radius" in data else None,
            axes=tuple(parse_rational(c) for c in data["axes"])
            if "axes" in data else None,
            height=parse_rational(data["height"]) if "height" in data else None,
            transverse=tuple(int(i) for i in data.get("transverse", ())),
        )


def _check_height(height: Fraction, where: str) -> None:
    """Float and box evaluation lift an ellipsoid's transverse weight
    1/h^2 to a double; raise HeightFailure, naming `where`, unless it is a
    finite one."""
    if not (height > 0 and 1 / height ** 2 < DOUBLE_MAX):
        raise HeightFailure("%s: height %.3g leaves 1/h^2 outside the "
                            "double range" % (where, height))


@dataclass(frozen=True)
class Stage:
    factors: tuple[Factor, ...]
    deficit_vars: tuple[int, ...]


@dataclass(frozen=True)
class FactoredPolynomial:
    num_vars: int
    stages: tuple[Stage, ...]

    def factor_count(self) -> int:
        return sum(len(s.factors) for s in self.stages)

    def to_json(self) -> dict:
        return {
            "variables": self.num_vars,
            "stages": [
                {"factors": [f.to_json() for f in s.factors],
                 "deficit_vars": list(s.deficit_vars)}
                for s in self.stages
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "FactoredPolynomial":
        stages = tuple(
            Stage(tuple(Factor.from_json(f) for f in s["factors"]),
                  tuple(int(i) for i in s["deficit_vars"]))
            for s in data["stages"]
        )
        for s, stage in enumerate(stages):
            for i, f in enumerate(stage.factors):
                if f.height is not None:
                    _check_height(f.height, "polynomial stage %d factor %d"
                                  % (s, i))
        return FactoredPolynomial(int(data["variables"]), stages)


def degree(poly: FactoredPolynomial) -> int:
    """Total degree: 2 per quadratic factor.  Square deficits never exceed
    it because every constructed polynomial keeps at least one factor."""
    count = poly.factor_count()
    if count == 0:
        raise NoFactors("polynomial has no factors")
    return 2 * count


# ---------------------------------------------------------------------------
# constant pools
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _turn_bounds(turn: Fraction) -> tuple[tuple[Fraction, Fraction],
                                          tuple[Fraction, Fraction]]:
    """Certified (cos, sin) bounds of 2*pi*turn at the base bound precision."""
    with interval_precision(BOUND_BITS):
        sin_t, cos_t = turn_sin_cos(turn)
        return ((interval_inf(cos_t), interval_sup(cos_t)),
                (interval_inf(sin_t), interval_sup(sin_t)))


class FloatConsts:
    """Nearest-double constants; fast and uncertified.  The irrational
    ones are cached, as every membership screen re-reads them."""

    def lift(self, fr: Fraction):
        return float(fr)

    @staticmethod
    @lru_cache(maxsize=None)
    def turn_cos_sin(turn: Fraction):
        # the exact midpoint of the BOUND_BITS endpoints, rounded once
        return tuple(
            to_float(mpf_shift(mpf_add(lo, hi), -1), rnd=round_nearest)
            for lo, hi in turn_cos_sin_mpi(turn, BOUND_BITS))

    @staticmethod
    @lru_cache(maxsize=None)
    def sin_half(k: int):
        lo, hi = sin_half_sector_bounds(k)
        return float((lo + hi) / 2)


class BoxConsts:
    """Directed float64 interval constants for BoxArray evaluation; the
    irrational ones are cached, as every certificate re-reads them."""

    def lift(self, fr: Fraction):
        return BoxArray.exact(fr)

    @staticmethod
    @lru_cache(maxsize=None)
    def turn_cos_sin(turn: Fraction):
        (c_lo, c_hi), (s_lo, s_hi) = _turn_bounds(turn)
        return (BoxArray(float_bounds(c_lo)[0], float_bounds(c_hi)[1]),
                BoxArray(float_bounds(s_lo)[0], float_bounds(s_hi)[1]))

    @staticmethod
    @lru_cache(maxsize=None)
    def sin_half(k: int):
        lo, hi = sin_half_sector_bounds(k)
        return BoxArray(float_bounds(lo)[0], float_bounds(hi)[1])


class IvConsts:
    """mpmath interval constants at the caller's active precision; each
    irrational one is enclosed once per (turn or k, precision)."""

    def lift(self, fr: Fraction):
        return to_interval(fr)

    def turn_cos_sin(self, turn: Fraction):
        return _iv_turn_cos_sin(turn, iv.prec)

    def sin_half(self, k: int):
        return _iv_sin_half(k, iv.prec)


@lru_cache(maxsize=None)
def _iv_turn_cos_sin(turn: Fraction, prec: int):
    return turn_sin_cos(turn)[::-1]


@lru_cache(maxsize=None)
def _iv_sin_half(k: int, prec: int):
    return iv.sin(iv.pi / k)


def _factor_value(f: Factor, xs, consts):
    if f.kind == "annulus_outer":
        return consts.lift((1 + f.a) ** 2) - xs[0] * xs[0] - xs[1] * xs[1]
    if f.kind == "annulus_inner":
        return xs[0] * xs[0] + xs[1] * xs[1] - consts.lift((1 - f.a) ** 2)
    if f.kind == "ellipse_outer":
        ax, ay = f.axes
        return (consts.lift(ax ** 2 * ay ** 2)
                - consts.lift(ay ** 2) * xs[0] * xs[0]
                - consts.lift(ax ** 2) * xs[1] * xs[1])
    if f.kind in ("circle", "ellipsoid"):  # a circle has no transverse term
        if f.center is not None:
            bx, by = consts.lift(f.center[0]), consts.lift(f.center[1])
            r2 = consts.lift((f.radius * f.scale) ** 2)
        else:
            cos_t, sin_t = consts.turn_cos_sin(f.turn)
            d = consts.lift(f.d)
            bx, by = d * cos_t, d * sin_t
            s = consts.sin_half(f.sectors)
            r2 = consts.lift(f.d ** 2 * f.scale ** 2) * (s * s)
        dx = xs[0] - bx
        dy = xs[1] - by
        acc = None
        for i in f.transverse:
            sq = xs[i] * xs[i]
            acc = sq if acc is None else acc + sq
        out = dx * dx + dy * dy - r2
        if acc is not None:
            # unit planar scale keeps deep stages inside float range; the
            # transverse wall r^2/h^2 pins the extent to the height
            out = out + (r2 * consts.lift(1 / f.height ** 2)) * acc
        return out
    raise ValueError("unknown factor kind %r" % f.kind)


class _Dual:
    """A value and its partial derivatives {variable: partial}, with the
    ring operations `_factor_value` and `_evaluate` use: forward-mode
    differentiation (Griewank and Walther, SIAM 2008)."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad=None):
        self.value = value
        self.grad = grad or {}

    def __add__(self, other: "_Dual") -> "_Dual":
        grad = dict(self.grad)
        for i, g in other.grad.items():
            grad[i] = grad[i] + g if i in grad else g
        return _Dual(self.value + other.value, grad)

    def __sub__(self, other: "_Dual") -> "_Dual":
        return self + -other

    def __neg__(self) -> "_Dual":
        return _Dual(-self.value, {i: -g for i, g in self.grad.items()})

    def __mul__(self, other: "_Dual") -> "_Dual":
        grad = {i: g * other.value for i, g in self.grad.items()}
        for i, g in other.grad.items():
            term = self.value * g
            grad[i] = grad[i] + term if i in grad else term
        return _Dual(self.value * other.value, grad)


class _Lifted:
    """Constant pool over the scalar pool `coeffs`: every constant is
    passed through `wrap`, as a constant term of a sparse polynomial or as
    a dual number with no gradient."""

    def __init__(self, coeffs, wrap):
        self.coeffs = coeffs
        self.wrap = wrap

    def lift(self, fr: Fraction):
        return self.wrap(self.coeffs.lift(fr))

    def turn_cos_sin(self, turn: Fraction):
        cos_t, sin_t = self.coeffs.turn_cos_sin(turn)
        return self.wrap(cos_t), self.wrap(sin_t)

    def sin_half(self, k: int):
        return self.wrap(self.coeffs.sin_half(k))


def _evaluate(poly: FactoredPolynomial, xs, consts):
    value = None
    for stage in poly.stages:
        for f in stage.factors:
            fval = _factor_value(f, xs, consts)
            value = fval if value is None else value * fval
        for i in stage.deficit_vars:
            sq = xs[i] * xs[i]
            value = (-sq) if value is None else value - sq
    if value is None:
        raise NoFactors("cannot evaluate an empty polynomial")
    return value


def evaluate_floats(poly: FactoredPolynomial, points: np.ndarray) -> np.ndarray:
    """Plain float64 evaluation; points has shape (num_vars, n)."""
    xs = [np.asarray(points[i], dtype=np.float64) for i in range(poly.num_vars)]
    return _evaluate(poly, xs, FloatConsts())


def evaluate_boxes(poly: FactoredPolynomial, boxes: Sequence[BoxArray]):
    """Certified float64-interval evaluation over per-variable box arrays."""
    return _evaluate(poly, list(boxes), BoxConsts())


def eval_and_gradient(poly: FactoredPolynomial, point: Sequence,
                      precision_bits: int = DEFAULT_PRECISION_BITS):
    """Certified value and gradient enclosures at one point: `_evaluate`
    over dual numbers of mpmath intervals."""
    with interval_precision(precision_bits):
        xs = [to_interval(p if isinstance(p, (Fraction, int)) else Fraction(p))
              for p in point]
        if len(xs) != poly.num_vars:
            raise ValueError("point dimension %d, expected %d"
                             % (len(xs), poly.num_vars))
        one, zero = to_interval(Fraction(1)), to_interval(Fraction(0))
        dual = _evaluate(poly, [_Dual(x, {i: one}) for i, x in enumerate(xs)],
                         _Lifted(IvConsts(), _Dual))
        return dual.value, [dual.grad.get(i, zero)
                            for i in range(poly.num_vars)]


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def region_polynomial(arr: CircleArrangement) -> FactoredPolynomial:
    """Planar region polynomial: boundary factors times one factor per
    removed disk.  Handle circles are placement markers, not factors."""
    factors: list[Factor] = []
    if arr.mode == "circle":
        factors.append(Factor(kind="annulus_outer", a=arr.halfwidth))
        factors.append(Factor(kind="annulus_inner", a=arr.halfwidth))
        for c in arr.removed_circles():
            factors.append(Factor(kind="circle", d=c.d,
                                  turn=arr.bisector_turn(c.sector),
                                  sectors=arr.k))
    else:
        factors.append(Factor(kind="ellipse_outer", axes=arr.ellipse_axes))
        for c in arr.removed_circles():
            factors.append(Factor(kind="circle", center=c.center,
                                  radius=c.radius))
    return FactoredPolynomial(2, (Stage(tuple(factors), ()),))


def _disk_planar_box(disk: Factor) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Rational bounding box of the closed planar disk."""
    if disk.center is not None:
        r = disk.radius * disk.scale
        return (disk.center[0] - r, disk.center[0] + r,
                disk.center[1] - r, disk.center[1] + r)
    (c_lo, c_hi), (s_lo, s_hi) = _turn_bounds(disk.turn)
    r_hi = disk.d * sin_half_sector_bounds(disk.sectors)[1] * disk.scale
    bx_lo, bx_hi = disk.d * c_lo, disk.d * c_hi
    by_lo, by_hi = disk.d * s_lo, disk.d * s_hi
    return bx_lo - r_hi, bx_hi + r_hi, by_lo - r_hi, by_hi + r_hi


def _disk_cells(disks: Sequence[Factor], n: int):
    """The x and y boxes of the n-cells-a-side interval covers of the
    disks' bounding boxes, keeping the cells that may meet each closed
    disk, concatenated in order; and the offset of each disk's first cell,
    then their total."""
    ends = np.array([[float_bounds(x_lo)[0], float_bounds(x_hi)[1],
                      float_bounds(y_lo)[0], float_bounds(y_hi)[1]]
                     for x_lo, x_hi, y_lo, y_hi in map(_disk_planar_box, disks)
                     ]).reshape(-1, 4)
    # array ends give each row the doubles of its own linspace call
    ex = np.linspace(ends[:, 0], ends[:, 1], n + 1, axis=1)
    ey = np.linspace(ends[:, 2], ends[:, 3], n + 1, axis=1)
    bx = BoxArray(np.repeat(ex[:, :-1], n, axis=1),
                  np.repeat(ex[:, 1:], n, axis=1))
    by = BoxArray(np.tile(ey[:, :-1], n), np.tile(ey[:, 1:], n))
    # drop cells certifiably outside the closed disk
    keep = np.zeros(bx.lo.shape, dtype=bool)
    for i, disk in enumerate(disks):
        circle = replace(disk, kind="circle", transverse=())
        keep[i] = ~(_factor_value(circle, [bx[i], by[i]], BoxConsts()).lo > 0)
    return [bx[keep], by[keep]], np.concatenate(([0], np.cumsum(keep.sum(1))))


class DiskValues:
    """Every factor at t = 0, by stage, with the stage products and their
    running product F, on the `cells`-a-side covers of `disks`, a model's
    ellipsoid sites in staging order, concatenated.  A stage is evaluated
    once, when the first site past it asks (`at`), over the suffix of cells
    from that site's on; a site's slice holds the doubles a batch of one
    would give it, as the arithmetic is elementwise."""

    def __init__(self, disks: Sequence[Factor], cells: int = 16):
        self.disks = tuple(disks)
        self._xs, self._starts = _disk_cells(self.disks, cells)
        self._stages: list = []  # (first cell, values, product, F) per stage

    def at(self, j: int, poly: FactoredPolynomial):
        """(values, products, F) of the stages of `poly` on site j's cells;
        sites ask in staging order, each with the stages before its own."""
        a, b = self._starts[j], self._starts[j + 1]
        for stage in poly.stages[len(self._stages):]:
            xs = [x[a:] for x in self._xs]
            # an ellipsoid factor at t = 0 loses its transverse term
            values = [_factor_value(replace(f, transverse=()), xs, BoxConsts())
                      for f in stage.factors]
            whole = product = reduce(operator.mul, values)
            if self._stages:
                start, _, _, previous = self._stages[-1]
                whole = previous[a - start:] * product
            self._stages.append((a, values, product, whole))
        stages = self._stages[:len(poly.stages)]
        start, _, _, whole = stages[-1]
        if start > a:
            raise ValueError("site %d asked after a later site" % j)
        return ([[v[a - s:b - s] for v in vs] for s, vs, _, _ in stages],
                [p[a - s:b - s] for s, _, p, _ in stages],
                whole[a - start:b - start])


class SiteCovers:
    """Site j's cover values, coarsest first: its slice of the model's
    16-cell `batch`, then 32 and 64 cells a side, each a batch of one.  A
    cover is evaluated when first reached and replayed afterwards, so the
    height bound and each containment attempt read one evaluation."""

    def __init__(self, batch: DiskValues, j: int, poly: FactoredPolynomial):
        self._covers = self._reach(batch, j, poly)
        self._seen: list = []

    @staticmethod
    def _reach(batch, j, poly):
        yield batch.at(j, poly)
        for cells in (32, 64):
            yield DiskValues(batch.disks[j:j + 1], cells).at(0, poly)

    def __iter__(self):
        for i in itertools.count():
            if i == len(self._seen):
                values = next(self._covers, None)
                if values is None:
                    return
                self._seen.append(values)
            yield self._seen[i]


def ellipsoid_height(covers: SiteCovers, where: str) -> Fraction:
    """Transverse semi-axis h = sqrt(L)/2, where L is a certified lower
    bound of F = poly(x, 0) over the closed disk, from the first cover that
    gives a positive one (branch-and-bound interval refinement).  Raises
    HeightFailure, naming `where`, when none does."""
    bound = -np.inf
    for _, _, whole in covers:
        bound = float(np.min(whole.lo, initial=np.inf))
        if bound > 0:
            break
    if not (bound > 0):
        raise HeightFailure("%s: no positive lower bound over the disk"
                            % where)
    half_sqrt = Fraction(float(np.sqrt(np.nextafter(bound, 0.0)))) / 2
    h = dyadic_significant(half_sqrt, 24)
    if h <= 0:
        raise HeightFailure("%s: certified height underflowed" % where)
    return h


def certify_ellipsoid_inside(covers: SiteCovers, height: Fraction) -> bool:
    """Certified check that the closed ellipsoid of height `height` over
    the disk of `covers` lies in {poly > 0}, read from those covers.

    Write poly = P_{s-1}, with P_j = P_{j-1} * prod E_j(x,t) - |t_j|^2 for
    the stage-j ellipsoid factors E_j and deficit variables t_j.  Let
    F(x) = P_{s-1}(x,0) and C_b(x) the product of the factors of the stages
    after block b, at t = 0.  On the closed ellipsoid x lies in the disk
    and |t|^2 <= h^2.  Proof by induction over the stages:
    * E(x,t) >= E(x,0) for every earlier ellipsoid factor, since its
      transverse term (r^2/h^2)|t|^2 is nonnegative;
    * so if P_{j-1} >= L_{j-1} > 0 and every E_j(x,0) > 0, then
      P_j >= L_j = L_{j-1} * prod E_j(x,0) - |t_j|^2;
    * unrolled, L_{s-1} = F - sum_b |t_b|^2 C_b >= F - h^2 max_b C_b;
    * L_j times the later, positive stage products is F - sum_{b<=j}
      |t_b|^2 C_b >= F - h^2 max_b C_b > 0, so every L_j is positive.
    Hence it accepts when each later ellipsoid factor at t = 0 and every
    F - h^2 C_b, with h^2 rounded outward, are positive on every kept cell
    of one cover (monotonicity: Moore, Kearfott and Cloud, SIAM 2009)."""
    h2 = BoxArray.exact(height ** 2)
    for values, products, whole in covers:
        # stage 0 holds the region factors, the later ones ellipsoids
        margins = [e for vs in values[1:] for e in vs]
        after = BoxArray.exact(1)  # C_b, from the last block back
        for product in reversed(products):  # every stage ends a block
            margins.append(whole - h2 * after)
            after = after * product
        if all(np.all(m.lo > 0) for m in margins):
            return True
    return False


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipsoidSite:
    circle_index: int
    stage: int
    sector: int
    channel: int
    factor: Factor

    def to_json(self) -> dict:
        return {"circle_index": self.circle_index, "stage": self.stage,
                "sector": self.sector, "channel": self.channel,
                "factor": self.factor.to_json()}


def fiber_word(dimension: int, sequence: Sequence[int]) -> str:
    """Connected-sum word of a regular fiber: one S^j x S^(m-j-1) summand
    per stage-j handle; the empty word is the sphere S^(m-1)."""
    parts = []
    for stage, count in enumerate(sequence, start=1):
        parts.extend(["S^%d x S^%d" % (stage, dimension - stage - 1)] * count)
    if not parts:
        return "S^%d" % (dimension - 1)
    return " # ".join(parts)


def staged_polynomial(spec: ValidatedSpec, arr: CircleArrangement,
                      height) -> FactoredPolynomial:
    """The model polynomial of `spec` over `arr`, in m+1 variables.

    Stage 0 holds the region factors.  Handle stage s multiplies in one
    ellipsoid factor per stage-s handle circle, in arrangement order: over
    the circle's half-scale disk, transverse in every variable past the
    plane.  Every stage then subtracts the squares of fresh variables, one
    before the last stage and the rest up to m+1 at it; a stage without
    ellipsoids adds its squares to the stage before.  The zero set doubles
    {P >= 0} along its boundary, and each ellipsoid attaches a handle.
    `height(poly, site, covers, where)` gives the height of the ellipsoid
    `site` (whose own height is unset) against `poly`, the earlier stages,
    from its `covers` (`SiteCovers` of one `DiskValues` batch of every
    site); `where` names the site in errors."""
    circles = [c for stage in range(spec.stages + 1) for c in arr.circles
               if c.role.kind == "handle" and c.role.stage == stage]
    batch = DiskValues([Factor(kind="ellipsoid", d=c.d,
                               turn=arr.bisector_turn(c.sector),
                               sectors=arr.k, scale=Fraction(1, 2))
                        for c in circles]) if circles else None
    poly = region_polynomial(arr)
    for stage in range(spec.stages + 1):
        sites = []
        for j, circle in enumerate(circles):
            if circle.role.stage != stage:
                continue
            site = replace(batch.disks[j],
                           transverse=tuple(range(2, poly.num_vars)))
            where = "ellipsoid at sector %d stage %d" % (circle.sector, stage)
            h = height(poly, site, SiteCovers(batch, j, poly), where)
            sites.append(replace(site, height=h))
        stages = poly.stages + ((Stage(tuple(sites), ()),) if sites else ())
        n = poly.num_vars
        new = tuple(range(n, n + 1 if stage < spec.stages
                          else spec.dimension + 1))
        top = stages[-1]
        poly = FactoredPolynomial(n + len(new), stages[:-1] + (
            Stage(top.factors, top.deficit_vars + new),))
    return poly


def _certified_height(poly: FactoredPolynomial, site: Factor,
                      covers: SiteCovers, where: str) -> Fraction:
    """A height at which `site` certifiably lies inside {poly > 0}: the
    disk bound of `ellipsoid_height` over its `covers`, capped and then
    halved until `certify_ellipsoid_inside` accepts it."""
    h = ellipsoid_height(covers, where)
    # the transverse wall of an existing ellipsoid factor grows like
    # r^2/h^2, so a new site must sit well under the thinnest height
    # already in the product or that wall swamps its enclosures
    cap = min((f.height for s in poly.stages for f in s.factors
               if f.kind == "ellipsoid"), default=None)
    if cap is not None and h > cap / 16:
        h = cap / 16
    for _ in range(12):
        _check_height(h, where)
        if certify_ellipsoid_inside(covers, h):
            return h
        h = h / 2
    raise HeightFailure("%s resisted certification" % where)


@dataclass(frozen=True)
class SurfaceModel:
    """A synthesized model.  Its data are the spec, the arrangement and
    the ellipsoid heights held in `polynomial`; the polynomial's stages,
    factors and variables, the `sites`, the degree and the dimensions are
    derived from them by `staged_polynomial`.  `from_json` re-certifies
    every stored height and rebuilds the derived fields; it raises
    ModelMismatch on a refused height or a file that disagrees."""

    spec: ValidatedSpec
    arrangement: CircleArrangement
    polynomial: FactoredPolynomial

    @property
    def ambient_dimension(self) -> int:
        return self.polynomial.num_vars

    @property
    def degree(self) -> int:
        return degree(self.polynomial)

    @property
    def sites(self) -> tuple[EllipsoidSite, ...]:
        """Handle circles in staging order, each with its ellipsoid."""
        circles = self.arrangement.circles
        handles = sorted((c.role.stage, i) for i, c in enumerate(circles)
                         if c.role.kind == "handle")
        ellipsoids = [f for s in self.polynomial.stages for f in s.factors
                      if f.kind == "ellipsoid"]
        return tuple(EllipsoidSite(i, stage, circles[i].sector,
                                   circles[i].role.channel, f)
                     for (stage, i), f in zip(handles, ellipsoids))

    def channel_fiber(self, sector: int, channel: int) -> str:
        seq = self.spec.handle_sequence(sector, channel)
        return fiber_word(self.spec.dimension, seq)

    def to_json(self) -> dict:
        return {
            "dimension": self.spec.dimension,
            "ambient_dimension": self.ambient_dimension,
            "degree": self.degree,
            "spec": graph_spec_to_json(self.spec),
            "arrangement": self.arrangement.to_json(),
            "polynomial": self.polynomial.to_json(),
            "sites": [s.to_json() for s in self.sites],
        }

    @staticmethod
    def from_json(data: dict) -> "SurfaceModel":
        spec = validated(graph_spec_from_json(data["spec"]))
        arr = CircleArrangement.from_json(data["arrangement"])
        stored = FactoredPolynomial.from_json(data["polynomial"])
        heights = (f.height for s in stored.stages for f in s.factors
                   if f.kind == "ellipsoid")

        def stored_height(poly, site, covers, where):
            h = next(heights, None)
            if h is None:
                raise ModelMismatch("%s has no stored height" % where)
            if not certify_ellipsoid_inside(covers, h):
                raise ModelMismatch("%s: stored height not certified" % where)
            return h

        model = SurfaceModel(spec, arr,
                             staged_polynomial(spec, arr, stored_height))
        rebuilt = model.to_json()
        for key in dict.fromkeys([*rebuilt, *data]):
            if rebuilt.get(key) != data.get(key):
                raise ModelMismatch(
                    "model field %r differs from the model rebuilt from its "
                    "spec, arrangement and heights" % key)
        return model


def synthesize(spec: ValidatedSpec) -> SurfaceModel:
    """Full pipeline: placement, then the staged polynomial with certified
    ellipsoid heights, a hypersurface in m+1 variables whose total degree
    obeys the closed-form count.  Certifying the arrangement's
    disjointness is the caller's job (`cli._certificate` does it before
    anything is written)."""
    arr = build_arrangement(spec)
    return SurfaceModel(spec, arr,
                        staged_polynomial(spec, arr, _certified_height))


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def _factor_is_rational(f: Factor) -> bool:
    if f.kind in ("annulus_outer", "annulus_inner", "ellipse_outer"):
        return True
    return f.center is not None


class _Terms:
    """Sparse polynomial, exponent tuple -> coefficient, with the ring
    operations `_factor_value` uses to build one factor's terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __add__(self, other: "_Terms") -> "_Terms":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return _Terms(out)

    def __sub__(self, other: "_Terms") -> "_Terms":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] - c if e in out else -c
        return _Terms(out)

    def __neg__(self) -> "_Terms":
        return _Terms({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "_Terms") -> "_Terms":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
        return _Terms(out)


class _ExactConsts:
    """Exact rational coefficients; rational-data factors need no others."""

    def lift(self, fr: Fraction):
        return Fraction(fr)


def _steps(poly: FactoredPolynomial, bits: Optional[int]):
    """The product as steps (exponent rows, mids, rads, den, multiply):
    each factor's terms from `_factor_value` over one-variable term
    polynomials, multiplied in, and each deficit's -x_i^2, added.  Every
    coefficient lies in [(mid - rad)/den, (mid + rad)/den].  Exact ones
    (bits None) are numerators over their least common denominator.
    Interval ones are balls around the outward-rounded mpmath endpoints,
    den = 2**s fine enough to keep bits + EXPANSION_GUARD_BITS bits of the
    smallest."""
    n = poly.num_vars
    coeffs = _ExactConsts() if bits is None else IvConsts()
    one = (0,) * n
    pool = _Lifted(coeffs, lambda c: _Terms({one: c}))
    steps = []
    with interval_precision(bits or DEFAULT_PRECISION_BITS):
        xs = [_Terms({tuple(int(j == i) for j in range(n)): coeffs.lift(1)})
              for i in range(n)]
        for stage in poly.stages:
            steps += [(_factor_value(f, xs, pool).terms, True)
                      for f in stage.factors]
            steps += [((-(xs[i] * xs[i])).terms, False)
                      for i in stage.deficit_vars]
    for terms, multiply in steps:
        rows = np.array(list(terms), dtype=np.int64)
        if bits is None:
            den = math.lcm(*(c.denominator for c in terms.values()))
            yield (rows, [int(c * den) for c in terms.values()],
                   [0] * len(terms), den, multiply)
            continue
        ends = [(interval_inf(c), interval_sup(c)) for c in terms.values()]
        shift = bits + EXPANSION_GUARD_BITS + max(
            [0] + [m.denominator.bit_length() - m.numerator.bit_length()
                   for m in (max(abs(lo), abs(hi)) for lo, hi in ends) if m])
        los = [(lo.numerator << shift) // lo.denominator for lo, _ in ends]
        his = [-((-hi.numerator << shift) // hi.denominator)
               for _, hi in ends]
        mids = [(lo + hi) >> 1 for lo, hi in zip(los, his)]
        yield (rows, mids, [hi - m for hi, m in zip(his, mids)], 1 << shift,
               multiply)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct keys (a plain sort beats np.unique's hashing)."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _expand(poly: FactoredPolynomial, precision_bits: Optional[int]):
    """(exponents, mids, rads, den) of the expanded product, one row per
    monomial of its support; rads is None when every factor is rational.
    See the module docstring.  Every product's support is found, and one
    past EXPANSION_GUARD monomials refused, before any coefficient is
    made."""
    if poly.factor_count() == 0:
        raise NoFactors("cannot expand an empty polynomial")
    bits = (DEFAULT_PRECISION_BITS if precision_bits is None
            else check_precision_bits(precision_bits, "precision_bits"))
    exact = all(_factor_is_rational(f) for s in poly.stages for f in s.factors)
    steps = list(_steps(poly, None if exact else bits))
    # monomial keys: exponent e_i / g_i in mixed radix, g_i the gcd of the
    # variable's exponents and the radix past its degree bound
    gcd = np.gcd.reduce(np.concatenate([s[0] for s in steps]), axis=0)
    gcd[gcd == 0] = 1
    radix = [int(t) + 1 for t in sum(s[0].max(axis=0) for s in steps) // gcd]
    if math.prod(radix) >= 2 ** 63:
        raise ExpansionTooLarge("exponent ranges need %d key bits, past int64"
                                % math.prod(radix).bit_length())
    weights = np.cumprod([1] + radix[:-1]).astype(np.int64)
    keys = [(s[0] // gcd) @ weights for s in steps]
    supports = [np.zeros(1, dtype=np.int64)]  # of the constant 1
    for k, step in zip(keys, steps):
        prev = supports[-1]
        if not step[-1]:
            supports.append(_distinct(np.concatenate([prev, k])))
            continue
        supports.append(_distinct((prev[None, :] + k[:, None]).ravel()))
        if len(supports[-1]) > EXPANSION_GUARD:
            raise ExpansionTooLarge("monomial count exceeded %d"
                                    % EXPANSION_GUARD)
    den = 1 if exact else 1 << bits + EXPANSION_GUARD_BITS
    mids, rads = np.array([den], dtype=object), np.zeros(1, dtype=object)
    for k, (_, ms, rs, d, multiply), prev, cur in zip(keys, steps, supports,
                                                      supports[1:]):
        out_m, out_r = np.zeros((2, len(cur)), dtype=object)
        if not multiply:  # d divides den: 1, or a power of two up to den
            at = np.searchsorted(cur, prev)
            out_m[at], out_r[at] = mids, rads
            at = np.searchsorted(cur, k)
            out_m[at] += np.array(ms, dtype=object) * (den // d)
            out_r[at] += np.array(rs, dtype=object) * (den // d)
            mids, rads = out_m, out_r
            continue
        # terms of one coefficient, such as x^2 and y^2, share a product
        groups: dict = {}
        for key, cm, cr in zip(k, ms, rs):
            groups.setdefault((cm, cr), []).append(key)
        size = np.abs(mids)
        for (cm, cr), group in groups.items():
            term_m, term_r = mids * cm, rads * abs(cm)
            if cr:
                term_r += (rads + size) * cr
            for key in group:  # each term maps the support in order
                at = np.searchsorted(cur, prev + key)
                out_m[at] += term_m
                out_r[at] += term_r
        if exact:
            mids, rads, den = out_m, out_r, den * d
            continue
        # back from scale 1/(den*d) to 1/den, rounding outward
        shift = d.bit_length() - 1
        mids = out_m >> shift
        rads = (out_m - (mids << shift) + out_r + d - 1) >> shift
        # refine den exactly while a coefficient away from 0 is shorter
        # than the precision and guard bits
        away = np.abs(mids) > rads
        if away.any():
            short = bits + EXPANSION_GUARD_BITS - int(
                np.min(np.abs(mids[away]))).bit_length()
            if short > 0:
                mids, rads, den = mids << short, rads << short, den << short
    exponents = (supports[-1][:, None] // weights % radix) * gcd
    return exponents, mids, None if exact else rads, den


def expand_terms(poly: FactoredPolynomial,
                 precision_bits: Optional[int] = None) -> dict:
    """Monomial dictionary of the represented polynomial.  Coefficients are
    exact Fractions when every factor is rational, else mpmath intervals
    whose endpoints are exactly those of the expansion's balls, enclosures
    at precision_bits."""
    exponents, mids, rads, den = _expand(poly, precision_bits)
    keys = [tuple(int(e) for e in row) for row in exponents]
    if rads is None:
        return {e: Fraction(m, den) for e, m in zip(keys, mids)}
    scale = 1 - den.bit_length()
    return {e: iv.make_mpf((from_man_exp(m - r, scale),
                            from_man_exp(m + r, scale)))
            for e, m, r in zip(keys, mids, rads)}


def expand(poly: FactoredPolynomial,
           precision_bits: Optional[int] = None, digits: int = 17) -> dict:
    """JSON-ready sparse expansion in graded lexicographic order.  An exact
    coefficient is a rational "p/q", and exact zeros are left out; an
    interval one is a decimal with only the digits its radius proves, and a
    radius such that coefficient +- radius encloses it (`decimal_ball`)."""
    exponents, mids, rads, den = _expand(poly, precision_bits)
    order = np.lexsort([exponents[:, i] for i in
                        reversed(range(poly.num_vars))] + [exponents.sum(1)])
    monomials = []
    for row, mid, rad in zip(exponents[order].tolist(), mids[order],
                             (mids if rads is None else rads)[order]):
        if rads is not None:
            coefficient, radius = decimal_ball(mid, rad, den, digits)
            monomials.append({"exponents": row, "coefficient": coefficient,
                              "radius": radius})
        elif mid:
            monomials.append({"exponents": row, "coefficient":
                              format_rational(Fraction(mid, den))})
    return {"variables": poly.num_vars, "ordering": "grlex",
            "monomials": monomials}


def render_text(poly: FactoredPolynomial,
                precision_bits: Optional[int] = None, digits: int = 12) -> str:
    """Plain-text P(x1,...,xn) with decimal coefficients for CAS import,
    read from the entries of `expand`."""
    pieces = []
    for entry in expand(poly, precision_bits, digits)["monomials"]:
        cstr = entry["coefficient"]
        if "radius" not in entry:
            exact = Fraction(cstr)
            cstr = (str(exact.numerator) if exact.denominator == 1 else
                    decimal_ball(exact.numerator, 0, exact.denominator,
                                 digits)[0])
        mono = "*".join("x%d^%d" % (i + 1, e) if e > 1 else "x%d" % (i + 1)
                        for i, e in enumerate(entry["exponents"]) if e)
        pieces.append(cstr if not mono else "%s*%s" % (cstr, mono))
    header = "P(%s) = " % ",".join("x%d" % (i + 1)
                                   for i in range(poly.num_vars))
    return header + " + ".join(pieces)


# ---------------------------------------------------------------------------
# extension artifact
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionArtifact:
    polynomial: FactoredPolynomial
    mode: str
    degree: int
    no_singular_points_claimed: bool = True

    def to_json(self) -> dict:
        retraction = ("radial retraction onto the unit circle"
                      if self.mode == "circle"
                      else "horizontal retraction onto the x-axis segment")
        return {
            "inequality": {
                "polynomial": self.polynomial.to_json(),
                "relation": ">= 0",
                "ambient_dimension": self.polynomial.num_vars,
                "degree": self.degree,
            },
            "map": {
                "composition": ["project to the first two coordinates",
                                retraction],
            },
            "boundary_is_model_zero_set": True,
            "no_singular_points_claimed": self.no_singular_points_claimed,
        }


def nonsingular_extension(model: SurfaceModel) -> ExtensionArtifact:
    """Describe the compact domain {P >= 0} whose boundary is the model
    hypersurface, together with the composed map to the target curve.  The
    absence of singular points of the restriction is recorded as a claim,
    not re-proven here."""
    return ExtensionArtifact(polynomial=model.polynomial,
                             mode=model.spec.mode,
                             degree=model.degree)
