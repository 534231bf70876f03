"""Per-layer spans and counts for the traced run.

`install` wraps the layers' public functions in a forked operation process
just before it calls the CLI, so the program's files stay untouched and
the parent process stays untraced.  A function is rebound in every module
namespace that holds it: `cli` imports names directly, `euler_check`
calls `verify_morse` through `sweep`, and `certify_ellipsoid_inside` calls
`evaluate_boxes` through `poly`, so only rebinding every copy turns nested
calls into child spans.

A span's self time is its duration minus the time of the spans it
encloses.  Spans are folded into per-metric sums as they close, so memory
stays flat however many calls an operation makes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric, unit, better), in report order
PER_LAYER = (
    ("graphs.validated_s", "s", "lower"),
    ("layout.build_arrangement_s", "s", "lower"),
    ("layout.circles", "count", "lower"),
    ("layout.certify_disjointness_s", "s", "lower"),
    ("layout.certify_disjointness_calls", "count", "lower"),
    ("layout.margins_certified", "count", "lower"),
    ("poly.synthesize_self_s", "s", "lower"),
    ("poly.ellipsoid_height_s", "s", "lower"),
    ("poly.ellipsoid_height_calls", "count", "lower"),
    ("poly.certify_ellipsoid_inside_s", "s", "lower"),
    ("poly.containment_attempts", "count", "lower"),
    ("poly.containment_accept_ratio", "ratio", "higher"),
    ("poly.box_factor_evals", "count", "lower"),
    ("poly.expand_s", "s", "lower"),
    ("poly.monomials", "count", "lower"),
    ("poly.model_json_s", "s", "lower"),
    ("poly.eval_and_gradient_s", "s", "lower"),
    ("poly.eval_and_gradient_calls", "count", "lower"),
    ("sweep.sweep_reeb_s", "s", "lower"),
    ("sweep.verify_morse_s", "s", "lower"),
    ("sweep.euler_check_s", "s", "lower"),
    ("sweep.fiber_counts_check_s", "s", "lower"),
    ("sweep.passes", "count", "lower"),
    ("oracle.brute_oracle_reeb_s", "s", "lower"),
    ("oracle.membership_check_s", "s", "lower"),
    ("oracle.membership_points", "count", "higher"),
    ("oracle.membership_suspects", "count", "lower"),
    ("oracle.membership_band_points", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# counts kept only to derive a reported ratio
CONTAINMENT_ACCEPTED = "poly.containment_accepted"


class Tracer:
    """Self times and counts of one operation process."""

    def __init__(self):
        self.values = defaultdict(float)
        self.enclosed = 0.0            # time inside outermost spans
        self._open = []                # per open span: time of its children

    def span(self, metric: str, fn, count: str = "", after=None):
        """Wrap fn so each call adds its self time to `metric`, one to
        `count` when given, and lets `after(values, args, result)` add
        counts of its own."""
        tracer = self

        def traced(*args, **kwargs):
            tracer._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                children = tracer._open.pop()
                tracer.values[metric] += spent - children
                if tracer._open:
                    tracer._open[-1] += spent
                else:
                    tracer.enclosed += spent
            if count:
                tracer.values[count] += 1
            if after is not None:
                after(tracer.values, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, after):
        """Wrap fn for counts only; its time stays in the enclosing span."""
        values = self.values

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(values, args, result)
            return result

        counted.__wrapped__ = fn
        return counted


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "reebforge"
                                  or name.startswith("reebforge.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _circles(values, args, arr):
    values["layout.circles"] += len(arr.circles)


def _margins(values, args, report):
    values["layout.margins_certified"] += len(report.entries)


def _containment(values, args, accepted):
    values[CONTAINMENT_ACCEPTED] += bool(accepted)


def _box_factor_evals(values, args, result):
    poly, boxes = args[0], args[1]
    cells = max(getattr(b.lo, "size", 1) for b in boxes)
    values["poly.box_factor_evals"] += cells * poly.factor_count()


def _monomials(values, args, expansion):
    values["poly.monomials"] += len(expansion["monomials"])


def _membership(values, args, report):
    values["oracle.membership_points"] += report.count
    values["oracle.membership_suspects"] += report.suspects
    values["oracle.membership_band_points"] += report.band_points


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported `reebforge` package."""
    from reebforge import graphs, layout, oracle, poly, sweep

    spans = (
        (graphs.validated, "graphs.validated_s", "", None),
        (layout.build_arrangement, "layout.build_arrangement_s", "",
         _circles),
        (layout.certify_disjointness, "layout.certify_disjointness_s",
         "layout.certify_disjointness_calls", _margins),
        (poly.synthesize, "poly.synthesize_self_s", "", None),
        (poly.ellipsoid_height, "poly.ellipsoid_height_s",
         "poly.ellipsoid_height_calls", None),
        (poly.certify_ellipsoid_inside, "poly.certify_ellipsoid_inside_s",
         "poly.containment_attempts", _containment),
        (poly.expand, "poly.expand_s", "", _monomials),
        (poly.eval_and_gradient, "poly.eval_and_gradient_s",
         "poly.eval_and_gradient_calls", None),
        (sweep.sweep_reeb, "sweep.sweep_reeb_s", "sweep.passes", None),
        (sweep.verify_morse, "sweep.verify_morse_s", "sweep.passes", None),
        (sweep.euler_check, "sweep.euler_check_s", "", None),
        (sweep.fiber_counts_check, "sweep.fiber_counts_check_s",
         "sweep.passes", None),
        (oracle.brute_oracle_reeb, "oracle.brute_oracle_reeb_s", "", None),
        (oracle.membership_check, "oracle.membership_check_s", "",
         _membership),
    )
    for fn, metric, count, after in spans:
        _rebind(fn, tracer.span(metric, fn, count, after))
    _rebind(poly.evaluate_boxes,
            tracer.counter(poly.evaluate_boxes, _box_factor_evals))

    model = poly.SurfaceModel
    model.to_json = tracer.span("poly.model_json_s", model.to_json)
    model.from_json = staticmethod(
        tracer.span("poly.model_json_s", model.from_json))


def summary(tracer: Tracer, command_s: float) -> dict:
    """Metric values of one operation; `command_s` is the wall time of the
    CLI call, whose time outside every span is `cli.self_s`."""
    out = dict(tracer.values)
    out["cli.self_s"] = command_s - tracer.enclosed
    return out


def combine(summaries) -> dict:
    """Per-layer metrics of a set of operations."""
    total = defaultdict(float)
    for s in summaries:
        for key, value in s.items():
            total[key] += value
    attempts = total["poly.containment_attempts"]
    total["poly.containment_accept_ratio"] = (
        total[CONTAINMENT_ACCEPTED] / attempts if attempts else 0.0)
    return {name: total[name] for name, _, _ in PER_LAYER}
