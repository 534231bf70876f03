"""Command line driver for the construction pipeline.

Subcommands mirror the library stages: synthesize a model from a graph
spec, re-verify a stored model against independent checks, render an
arrangement picture, export the expanded polynomial, describe the compact
domain extension, and test an embedded graph against the realizability
conditions.

Exit codes: 0 success, 1 failed graph conditions (check-graph only),
2 invalid input, 3 packing failure, 4 certification failure.  `verify`
takes --points of at least 1 and --seed of at least 0 with
(seed + 1) * points at most 2**53, and --oracle-res components of at least
1; `export` takes --precision-bits of at least 16, the floor of a spec's
precision_bits and of REEBFORGE_PRECISION; anything else exits 2 before
the model is loaded.  Malformed arrangement data also exits 2: a circle
whose sector lies outside 1..k, precision_bits below 16, or a circle
arrangement with circles and k < 3.  `export` prints an interval
coefficient with only the digits its radius proves, and exits 4 as soon as
a product in the expansion passes a million monomials.  Every subcommand
that loads a model (verify, plot --model, export, extend) rebuilds it from
its spec, arrangement and ellipsoid heights, re-certifying each height, and
exits 4 when a height or the stored file is refused.

`verify --oracle-res RxA` sets the uniform part of the sampled oracle's
grid: R log-spaced radii (ordinates in line mode) and A slices of the sweep
parameter.  The oracle adds the radii the arrangement's disks give (one in
every gap between disks, one on every tangency foot, one between every two
neighbouring feet) and the ladder slices next to every tangency, so any
grid reads the graph of an arrangement `synthesize` makes, within the
bounds the `oracle` module docstring states.  It runs once on exactly that
grid, raising no count behind the caller; `verify` prints it and records
it as the certificate's oracle resolution.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (CountMismatch, DegenerateEvent, EulerMismatch,
                     ExpansionTooLarge, HeightFailure, MarginViolation,
                     MissingSingularAngle, ModelMismatch, PackingFailure,
                     ResolutionTooCoarse, SpecValidationError)
from .graphs import (check_embedded_graph, embedded_graph_from_json,
                     graph_spec_from_json, path_isomorphic, reeb_isomorphic,
                     graph_spec_to_json, validated)
from .layout import CircleArrangement, certify_disjointness
from .numbers import check_precision_bits, decimal_string, format_rational
from .oracle import (brute_oracle_reeb, check_membership_sample,
                     membership_check, results_match, smooth_degree_two)
from .poly import SurfaceModel, expand, nonsingular_extension, render_text
from .poly import synthesize as synthesize_model
from .svgplot import arrangement_svg
from .sweep import sweep_reeb, verify_morse

PRECISION_ENV = "REEBFORGE_PRECISION"


def _env_bits():
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return None
    return check_precision_bits(int(raw), PRECISION_ENV)


def _read_json(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("%s: expected a JSON object" % path)
    return data


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_spec(path: str, bits_flag):
    """Precision priority: flag, then spec file, then environment."""
    data = _read_json(path)
    env = _env_bits()
    if bits_flag is not None:
        data["precision_bits"] = bits_flag
    elif "precision_bits" not in data and env is not None:
        data["precision_bits"] = env
    return graph_spec_from_json(data)


def _load_model(path: str) -> SurfaceModel:
    return SurfaceModel.from_json(_read_json(path))


def _certificate(model: SurfaceModel):
    """Certify the model's arrangement and collect the evidence.

    Disjointness is certified first.  Then one certified sweep pass,
    `verify_morse`, makes every crossing decision; the Reeb graph (checked
    against the spec), the Euler report of a surface and the fibre table of
    a circle arrangement are all read from its certificate."""
    vspec = model.spec
    arr = model.arrangement
    dis = certify_disjointness(arr)
    morse = verify_morse(arr)
    result = morse.reeb_graph(vspec.dimension)
    same = (reeb_isomorphic(vspec, result) if vspec.mode == "circle"
            else path_isomorphic(vspec, result))
    if not same:
        raise CountMismatch("swept graph is not isomorphic to the spec graph")
    cert = {
        "spec": graph_spec_to_json(vspec),
        "degree": model.degree,
        "precision_bits": arr.precision_bits,
        "disjointness": {
            "epsilon": format_rational(dis.epsilon),
            "min_margin": decimal_string(dis.min_margin, 12),
            "pairs": len(dis.entries) + dis.lemma_pairs,
        },
        "morse": morse.to_json(),
        "reeb_graph": result.to_json(),
        "isomorphic_to_spec": True,
    }
    if vspec.dimension == 2:
        cert["euler"] = morse.euler_report(vspec).to_json()
    if arr.mode == "circle" and arr.k:
        cert["fibers"] = morse.fiber_table(vspec).to_json()
    return cert, result


def _parse_resolution(text: str) -> tuple[int, int]:
    radial, sep, angular = text.partition("x")
    if not sep:
        raise ValueError("resolution must look like 1024x512")
    radial, angular = int(radial), int(angular)
    if radial < 1 or angular < 1:
        raise ValueError("resolution components must be at least 1, got %s"
                         % text)
    return radial, angular


def cmd_synthesize(args) -> int:
    spec = _load_spec(args.spec, args.precision_bits)
    model = synthesize_model(validated(spec))
    cert, result = _certificate(model)
    out = _out_dir(args)
    _write_json(out / "model.json", model.to_json())
    _write_json(out / "arrangement.json", model.arrangement.to_json())
    _write_json(out / "certificate.json", cert)
    print("mode: %s" % model.spec.mode)
    print("degree: %d" % model.degree)
    print("vertices: %d  edges: %d" % (len(result.vertices), len(result.edges)))
    if "euler" in cert:
        print("genus: %d" % cert["euler"]["genus"])
    print("wrote: model.json arrangement.json certificate.json")
    return 0


def cmd_verify(args) -> int:
    radial, angular = _parse_resolution(args.oracle_res)
    check_membership_sample(args.points, args.seed)
    model = _load_model(args.model)
    arr = model.arrangement
    cert, result = _certificate(model)

    oracle = brute_oracle_reeb(arr, radial_res=radial, angular_res=angular)
    if not results_match(smooth_degree_two(result), oracle):
        raise ModelMismatch("sampled region graph disagrees with the sweep")
    cert["oracle"] = {"resolution": [radial, angular],
                      "graph": oracle.to_json()}

    report = membership_check(model, count=args.points, seed=args.seed)
    if not report.ok:
        raise ModelMismatch("polynomial sign disagrees with region "
                            "membership at %d points" % len(report.mismatches))
    cert["membership"] = report.to_json()
    cert["verified"] = True

    if args.out:
        _write_json(_out_dir(args) / "certificate.json", cert)
        print("wrote: certificate.json")
    print("degree: %d" % cert["degree"])
    print("oracle: %dx%d match" % (radial, angular))
    print("membership: %d points, %d in band, ok" %
          (report.count, report.band_points))
    print("verified: ok")
    return 0


def cmd_plot(args) -> int:
    if args.spec:
        model = synthesize_model(validated(_load_spec(args.spec, None)))
        arr, dim = model.arrangement, model.spec.dimension
    elif args.model:
        model = _load_model(args.model)
        arr, dim = model.arrangement, model.spec.dimension
    else:
        arr = CircleArrangement.from_json(_read_json(args.arrangement))
        # smallest dimension whose stage count covers the handle circles
        stages = max((c.role.stage for c in arr.circles
                      if c.role.kind == "handle"), default=0)
        dim = 2 * stages + 1 if stages else 2
    result = sweep_reeb(arr, dim)
    out = _out_dir(args)
    (out / "plot.svg").write_text(arrangement_svg(arr, result,
                                                  size=args.size))
    print("wrote: plot.svg")
    return 0


def cmd_export(args) -> int:
    if args.precision_bits is not None:
        check_precision_bits(args.precision_bits, "--precision-bits")
    model = _load_model(args.model)
    out = _out_dir(args)
    if args.format == "text":
        text = render_text(model.polynomial, args.precision_bits)
        (out / "expanded.txt").write_text(text + "\n")
        print("wrote: expanded.txt")
    else:
        _write_json(out / "expanded.json",
                    expand(model.polynomial, args.precision_bits))
        print("wrote: expanded.json")
    print("degree: %d" % model.degree)
    return 0


def cmd_extend(args) -> int:
    model = _load_model(args.model)
    artifact = nonsingular_extension(model)
    out = _out_dir(args)
    _write_json(out / "extension.json", artifact.to_json())
    print("wrote: extension.json")
    print("degree: %d" % artifact.degree)
    return 0


def cmd_check_graph(args) -> int:
    desc = embedded_graph_from_json(_read_json(args.graph))
    report = check_embedded_graph(desc)
    checks = [
        ("vertex degrees in {1, 3}", report.degrees_ok,
         "bad vertices: %s" % (report.bad_degree_vertices,)),
        ("vertex angles pairwise distinct", report.angles_injective,
         "collisions: %s" % (report.angle_collisions,)),
        ("degree-3 vertices two-sided", report.sides_ok,
         "one-sided vertices: %s" % (report.one_sided_vertices,)),
    ]
    for name, ok, detail in checks:
        print("%s: %s" % (name, "pass" if ok else "FAIL (%s)" % detail))
    if args.out:
        _write_json(_out_dir(args) / "graph_report.json", {
            "degrees_ok": report.degrees_ok,
            "bad_degree_vertices": list(report.bad_degree_vertices),
            "angles_injective": report.angles_injective,
            "angle_collisions": [list(c) for c in report.angle_collisions],
            "sides_ok": report.sides_ok,
            "one_sided_vertices": list(report.one_sided_vertices),
            "ok": report.ok,
        })
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reebforge",
        description="construct and certify algebraic surface models of "
                    "prescribed level-set graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synthesize",
                       help="build a certified model from a graph spec")
    s.add_argument("--spec", required=True, help="graph spec JSON file")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--precision-bits", type=int, default=None)
    s.set_defaults(func=cmd_synthesize)

    v = sub.add_parser("verify",
                       help="re-certify a stored model with independent checks")
    v.add_argument("--model", required=True, help="model JSON file")
    v.add_argument("--out", default=None, help="directory for the certificate")
    v.add_argument("--oracle-res", default="512x256",
                   help="uniform part of the oracle's sampling grid, "
                        "radial x angular, each at least 1")
    v.add_argument("--points", type=int, default=20000,
                   help="membership sample size, at least 1")
    v.add_argument("--seed", type=int, default=0,
                   help="membership sample offset, at least 0; "
                        "(seed + 1) * points may not exceed 2**53")
    v.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="render the arrangement as SVG")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec")
    source.add_argument("--model")
    source.add_argument("--arrangement")
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=640)
    p.set_defaults(func=cmd_plot)

    e = sub.add_parser("export", help="expand the model polynomial")
    e.add_argument("--model", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--format", choices=("json", "text"), default="json")
    e.add_argument("--precision-bits", type=int, default=None,
                   help="working precision of the interval coefficients, "
                        "at least 16 (default 128)")
    e.set_defaults(func=cmd_export)

    x = sub.add_parser("extend",
                       help="describe the compact domain the surface bounds")
    x.add_argument("--model", required=True)
    x.add_argument("--out", required=True)
    x.set_defaults(func=cmd_extend)

    g = sub.add_parser("check-graph",
                       help="test an embedded graph for realizability")
    g.add_argument("--graph", required=True,
                   help="embedded graph description JSON")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_check_graph)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SpecValidationError as exc:
        print("invalid spec: %s" % exc, file=sys.stderr)
        return 2
    except PackingFailure as exc:
        print("packing failed: %s" % exc, file=sys.stderr)
        return 3
    except (HeightFailure, MarginViolation, CountMismatch, DegenerateEvent,
            MissingSingularAngle, EulerMismatch, ExpansionTooLarge,
            ResolutionTooCoarse, ModelMismatch) as exc:
        print("certification failed: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
