"""Command line driver: files in, files out, exit codes."""

import copy
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from reebforge import layout
from reebforge.cli import main

THETA_GRAPH = {
    "vertices": [{"id": 0, "angle": "0/1 of 2pi"},
                 {"id": 1, "angle": "1/2 of 2pi"}],
    "edges": [{"ends": [0, 1], "sides": [1, -1]},
              {"ends": [0, 1], "sides": [1, -1]},
              {"ends": [0, 1], "sides": [-1, 1]}],
}


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")


def spec_file(tmp_path, mults=(2, 2, 2), mode="circle", name="spec.json",
              **extra):
    data = {"mode": mode, "vertices": len(mults), "multiplicities":
            list(mults), "dimension": 2}
    if mode == "line":
        data["vertices"] = len(mults) + 1
    data.update(extra)
    path = tmp_path / name
    write_json(path, data)
    return path


def synthesized(tmp_path, **kw):
    spec = spec_file(tmp_path, **kw)
    out = tmp_path / "out"
    code = main(["synthesize", "--spec", str(spec), "--out", str(out)])
    assert code == 0
    return out


# sectors of three channels with deep handle sequences
THREE_CHANNELS = {"dimension": 13, "handles": [
    {"edge": [2, 2], "sequence": [2, 1, 2, 1, 1, 2]},
    {"edge": [3, 2], "sequence": [2, 2, 2, 1, 2, 2]}]}

M5_HANDLE = {"dimension": 5, "handles": [{"edge": [1, 1],
                                          "sequence": [1, 0]}]}


@pytest.fixture(scope="module")
def m5_model(tmp_path_factory):
    """model.json of an m = 5 spec with one stage-1 handle circle."""
    out = synthesized(tmp_path_factory.mktemp("m5"), **M5_HANDLE)
    return json.loads((out / "model.json").read_text())


def set_ellipsoids(key, value):
    """An edit of every ellipsoid factor and of its copy in sites; a
    callable `value` maps the old value to the new one."""
    def edit(data):
        factors = [f for stage in data["polynomial"]["stages"]
                   for f in stage["factors"] if f["kind"] == "ellipsoid"]
        for factor in factors + [site["factor"] for site in data["sites"]]:
            factor[key] = value(factor[key]) if callable(value) else value
    return edit


def times_1000(rational):
    h = Fraction(rational) * 1000
    return "%d/%d" % (h.numerator, h.denominator)


def move_site(data):
    data["sites"][0]["sector"] = (data["sites"][0]["sector"] + 1) % 3


def relabel_sector_3_as_0(data):
    """Sector 0 of 3 has the geometry of sector 3: the circle keeps its
    distance and its factor turn moves from 7/6 to 1/6, so only the sector
    range can refuse the model."""
    circle = next(c for c in data["arrangement"]["circles"]
                  if c["sector"] == 3)
    circle["sector"] = 0
    for stage in data["polynomial"]["stages"]:
        for factor in stage["factors"]:
            if factor.get("turn") == "7/6":
                factor["turn"] = "1/6"


def cut_abscissae(arr):
    del arr["abscissae"][2:]


def shift_derived(data):
    for key in ("degree", "dimension", "ambient_dimension"):
        data[key] += 2


def drop_deficit(data):
    data["polynomial"]["stages"][-1]["deficit_vars"].pop()


def set_deficits(data):
    data["polynomial"]["stages"][-1]["deficit_vars"] = [99]


def set_variables(data):
    data["polynomial"]["variables"] = 3


# edits that leave the spec and the arrangement alone, so only the rebuild
# on load, or its re-certification of the heights, can refuse them
MODEL_TAMPERS = [
    ("site_sector", move_site),
    ("derived_fields", shift_derived),
    ("ellipsoid_turn", set_ellipsoids("turn", "1/7")),
    ("ellipsoid_scale", set_ellipsoids("scale", "1/4")),
    ("ellipsoid_transverse", set_ellipsoids("transverse", [2, 3])),
    ("dropped_deficit", drop_deficit),
    ("transverse_99", set_ellipsoids("transverse", [99])),
    ("deficit_vars_99", set_deficits),
    ("variables_3", set_variables),
    # x2 is still a certified height on this model; x1000 is not
    ("heights_x1000", set_ellipsoids("height", times_1000)),
]

KIND_SWAP = {"annulus_outer": "annulus_inner",
             "annulus_inner": "annulus_outer",
             "circle": "ellipsoid", "ellipsoid": "circle"}


def leaf_paths(node, path=()):
    """Key paths of the scalar leaves under a JSON node."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from leaf_paths(child, path + (key,))
    else:
        yield path


def mutated(value):
    """An int plus one, a rational p/q as (p+1)/q, a factor kind swapped."""
    if isinstance(value, int):
        return value + 1
    if "/" in value:
        p, q = value.split("/")
        return "%d/%s" % (int(p) + 1, q)
    return KIND_SWAP[value]


class TestSynthesize:
    def test_writes_artifacts(self, tmp_path, capsys):
        out = synthesized(tmp_path)
        for name in ("model.json", "arrangement.json", "certificate.json"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "degree: 10" in stdout
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["degree"] == 10
        assert cert["isomorphic_to_spec"] is True
        assert cert["euler"]["genus"] == 4

    def test_torus(self, tmp_path):
        out = synthesized(tmp_path, mults=())
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["degree"] == 4
        assert cert["euler"]["genus"] == 1
        assert "fibers" not in cert

    def test_line(self, tmp_path):
        out = synthesized(tmp_path, mults=(1, 2, 1), mode="line")
        model = json.loads((out / "model.json").read_text())
        assert model["spec"]["mode"] == "line"

    def test_invalid_spec_is_exit_two(self, tmp_path, capsys):
        spec = spec_file(tmp_path, mults=(1, 2, 1))
        code = main(["synthesize", "--spec", str(spec), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        assert "invalid spec" in capsys.readouterr().err

    def test_unknown_field_is_exit_two(self, tmp_path):
        spec = spec_file(tmp_path, flavor="ripple")
        assert main(["synthesize", "--spec", str(spec), "--out",
                     str(tmp_path / "o")]) == 2

    def test_missing_file_is_exit_two(self, tmp_path):
        assert main(["synthesize", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_garbage_json_is_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["synthesize", "--spec", str(bad), "--out",
                     str(tmp_path / "o")]) == 2

    def test_zero_denominator_is_exit_two(self, tmp_path, capsys):
        spec = spec_file(tmp_path, annulus_halfwidth="1/0")
        code = main(["synthesize", "--spec", str(spec), "--out",
                     str(tmp_path / "o")])
        assert code == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_impossible_packing_is_exit_three(self, tmp_path, capsys):
        spec = spec_file(tmp_path, mults=(4, 4, 4),
                         annulus_halfwidth="9/10")
        code = main(["synthesize", "--spec", str(spec), "--out",
                     str(tmp_path / "o")])
        assert code == 3
        assert "packing failed" in capsys.readouterr().err

    def test_height_outside_double_range_is_exit_four(self, tmp_path,
                                                      capsys):
        # the height cap and the halvings drive 1/h^2 past the largest
        # double at the fourth stage
        spec = spec_file(tmp_path, mults=(2, 2, 2, 2), dimension=13,
                         handles=[{"edge": [1, 1], "sequence": [3] * 6},
                                  {"edge": [2, 2], "sequence": [3] * 6}])
        code = main(["synthesize", "--spec", str(spec), "--out",
                     str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "certification failed: ellipsoid at sector" in err
        assert "stage" in err and "double range" in err


class TestVerify:
    def test_clean_model_verifies(self, tmp_path):
        out = synthesized(tmp_path)
        code = main(["verify", "--model", str(out / "model.json"),
                     "--out", str(out), "--points", "2000"])
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verified"] is True
        assert cert["membership"]["mismatches"] == []
        assert cert["oracle"]["resolution"] == [512, 256]

    @pytest.mark.parametrize("name", ["wide", "line (1,3,2,1)"])
    def test_one_tangency_list_per_verify(self, name, tmp_path, monkeypatch,
                                          corpus_models, benchmark_models):
        # the sweep pass and the oracle share the loaded arrangement's list
        model = {**corpus_models, **benchmark_models}[name]
        path = tmp_path / "model.json"
        write_json(path, model.to_json())
        built = []
        build_events = layout._build_tangency_events
        monkeypatch.setattr(layout, "_build_tangency_events",
                            lambda arr: built.append(arr) or build_events(arr))
        assert main(["verify", "--model", str(path), "--points", "2000"]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("mults,extra", [
        ((14, 14, 14), {}),
        ((3, 2, 3, 3), THREE_CHANNELS),
    ], ids=["14-14-14", "three-channels"])
    def test_deep_chains_verify_at_the_defaults(self, tmp_path, capsys,
                                                mults, extra):
        out = synthesized(tmp_path, mults=mults, **extra)
        code = main(["verify", "--model", str(out / "model.json")])
        assert code == 0
        assert "oracle: 512x256 match" in capsys.readouterr().out

    @pytest.mark.parametrize("vertices", [64, 128])
    @pytest.mark.parametrize("grid", [None, "96x40"])
    def test_certificate_records_the_grid_that_ran(self, tmp_path, capsys,
                                                  vertices, grid):
        half = vertices // 2
        mults = random.Random(vertices).sample([2] * half + [3] * half,
                                               vertices)
        out = synthesized(tmp_path, mults=mults)
        capsys.readouterr()
        flags = [] if grid is None else ["--oracle-res", grid]
        code = main(["verify", "--model", str(out / "model.json"), "--out",
                     str(out), "--points", "2000"] + flags)
        assert code == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("oracle: ")]
        cert = json.loads((out / "certificate.json").read_text())
        assert printed == ["oracle: %dx%d match"
                           % tuple(cert["oracle"]["resolution"])]
        assert printed == ["oracle: %s match" % (grid or "512x256")]

    def test_tampered_multiplicity(self, tmp_path, capsys):
        out = synthesized(tmp_path)
        path = out / "model.json"
        data = json.loads(path.read_text())
        data["spec"]["multiplicities"][0] = 3
        write_json(path, data)
        code = main(["verify", "--model", str(path), "--points", "2000"])
        assert code == 4
        assert "certification failed" in capsys.readouterr().err

    def test_tampered_circle_position(self, tmp_path):
        out = synthesized(tmp_path)
        path = out / "model.json"
        data = json.loads(path.read_text())
        circle = data["arrangement"]["circles"][0]
        circle["d"] = "1/100"
        write_json(path, data)
        assert main(["verify", "--model", str(path),
                     "--points", "2000"]) == 4

    def test_tampered_height_outside_double_range(self, tmp_path, capsys):
        out = synthesized(tmp_path, dimension=5,
                          handles=[{"edge": [1, 1], "sequence": [1, 0]}])
        path = out / "model.json"
        data = json.loads(path.read_text())
        tiny = "1/%d" % 2 ** 600
        for stage in data["polynomial"]["stages"]:
            for factor in stage["factors"]:
                if "height" in factor:
                    factor["height"] = tiny
        for site in data["sites"]:
            site["factor"]["height"] = tiny
        write_json(path, data)
        code = main(["verify", "--model", str(path), "--points", "2000"])
        assert code == 4
        err = capsys.readouterr().err
        assert "polynomial stage 1 factor 0" in err
        assert "double range" in err

    @pytest.mark.parametrize("mode,mults", [("circle", (2, 2, 2)),
                                            ("line", (1, 2, 1))],
                             ids=["circle", "line"])
    def test_tampered_factor_scale(self, tmp_path, mode, mults):
        out = synthesized(tmp_path, mults=mults, mode=mode)
        path = out / "model.json"
        data = json.loads(path.read_text())
        for stage in data["polynomial"]["stages"]:
            for factor in stage["factors"]:
                if factor["kind"] == "circle":
                    factor["scale"] = "3/2"
        write_json(path, data)
        assert main(["verify", "--model", str(path),
                     "--points", "2000"]) == 4

    @pytest.mark.parametrize("name,edit", MODEL_TAMPERS,
                             ids=[name for name, _ in MODEL_TAMPERS])
    def test_inconsistent_model(self, tmp_path, capsys, m5_model, name,
                                edit):
        data = copy.deepcopy(m5_model)
        edit(data)
        path = tmp_path / "model.json"
        write_json(path, data)
        code = main(["verify", "--model", str(path), "--points", "2000"])
        assert code == 4
        err = capsys.readouterr().err
        assert "certification failed" in err
        if name == "heights_x1000":
            assert "ellipsoid at sector 1 stage 1" in err

    def test_refused_last_stage_height_names_its_site(self, tmp_path,
                                                      capsys):
        # the sites share one batch of cover values, yet are still
        # certified one by one in staging order: only the last is refused
        out = synthesized(tmp_path, mults=(2, 1, 1), dimension=7,
                          handles=[{"edge": [2, 1], "sequence": [1, 0, 1]}])
        path = out / "model.json"
        data = json.loads(path.read_text())
        last = [f for stage in data["polynomial"]["stages"]
                for f in stage["factors"] if f["kind"] == "ellipsoid"][-1]
        for factor in (last, data["sites"][-1]["factor"]):
            factor["height"] = times_1000(factor["height"])
        write_json(path, data)
        code = main(["verify", "--model", str(path), "--points", "2000"])
        assert code == 4
        assert ("certification failed: ellipsoid at sector 2 stage 3: "
                "stored height not certified") in capsys.readouterr().err

    @pytest.mark.parametrize("command,part,edit", [
        ("verify", "arrangement", lambda a: a["circles"][0].update(d="1/0")),
        ("export", "polynomial",
         lambda p: p["stages"][0]["factors"][0].update(a="1/0")),
        ("verify", "arrangement", lambda a: a.update(k=0)),
        ("verify", None, relabel_sector_3_as_0),
        ("verify", "arrangement", lambda a: a.update(precision_bits=0)),
    ], ids=["circle_d", "factor_a", "sectors_0", "circle_sector_0",
            "precision_bits_0"])
    def test_malformed_model_is_exit_two(self, tmp_path, capsys, command,
                                         part, edit):
        out = synthesized(tmp_path)
        path = out / "model.json"
        data = json.loads(path.read_text())
        edit(data if part is None else data[part])
        write_json(path, data)
        assert main([command, "--model", str(path), "--out", str(out)]) == 2
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("command,name,flag", [
        ("verify", "model.json", "--model"),
        ("plot", "arrangement.json", "--arrangement"),
    ], ids=["verify", "plot"])
    def test_line_sector_past_last_strip_is_exit_two(self, tmp_path, capsys,
                                                     command, name, flag):
        out = synthesized(tmp_path, mults=(1, 2, 1), mode="line")
        path = out / name
        data = json.loads(path.read_text())
        arr = data["arrangement"] if name == "model.json" else data
        arr["circles"][0]["sector"] = arr["k"] + 1
        write_json(path, data)
        assert main([command, flag, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and "sector 4 outside 1..3" in err

    @pytest.mark.parametrize("command,name,flag", [
        ("verify", "model.json", "--model"),
        ("plot", "model.json", "--model"),
        ("plot", "arrangement.json", "--arrangement"),
    ], ids=["verify", "plot_model", "plot_arrangement"])
    @pytest.mark.parametrize("edit,message", [
        (cut_abscissae, "3 strips needs 4 abscissae, got 2"),
        (lambda arr: arr.update(k=5), "5 strips needs 6 abscissae, got 4"),
        (lambda arr: arr["abscissae"].reverse(), "abscissae must increase"),
        (lambda arr: arr.pop("ellipse"),
         "a line arrangement needs 'ellipse', two positive axes, got None"),
        (lambda arr: arr.update(ellipse=["1"]),
         "needs 'ellipse', two positive axes, got ['1']"),
        (lambda arr: arr.update(ellipse=["-1", "0"]),
         "needs 'ellipse', two positive axes, got ['-1', '0']"),
        (lambda arr: arr.update(mode="foo"),
         "arrangement 'mode' must be 'circle' or 'line', got 'foo'"),
    ], ids=["cut", "k_5", "reversed", "no_ellipse", "ellipse_1",
            "ellipse_nonpositive", "mode_foo"])
    def test_line_abscissae_are_checked(self, tmp_path, capsys, command,
                                        name, flag, edit, message):
        out = synthesized(tmp_path, mults=(1, 2, 1), mode="line")
        path = out / name
        data = json.loads(path.read_text())
        arr = data["arrangement"] if name == "model.json" else data
        edit(arr)
        write_json(path, data)
        assert main([command, flag, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and message in err

    @pytest.mark.parametrize("command,name,flag", [
        ("verify", "model.json", "--model"),
        ("plot", "model.json", "--model"),
        ("plot", "arrangement.json", "--arrangement"),
    ], ids=["verify", "plot_model", "plot_arrangement"])
    @pytest.mark.parametrize("epsilon", ["-1/1", "0/1"])
    def test_epsilon_is_derived(self, tmp_path, capsys, command, name, flag,
                                epsilon):
        # a margin is certified against epsilon, which a file cannot lower
        out = synthesized(tmp_path)
        path = out / name
        data = json.loads(path.read_text())
        arr = data["arrangement"] if name == "model.json" else data
        arr["epsilon"] = epsilon
        write_json(path, data)
        assert main([command, flag, str(path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "certification failed" in err
        assert "epsilon %s is not" % epsilon in err

    @pytest.mark.parametrize("flags,message", [
        (["--points", "0"], "got points 0, seed 0"),
        (["--seed", "-1"], "got points 20000, seed -1"),
        (["--points", "1", "--seed", str(2 ** 53)], "seed %d" % 2 ** 53),
        (["--oracle-res", "0x0"], "at least 1, got 0x0"),
        (["--oracle-res", "512x0"], "at least 1, got 512x0"),
    ], ids=["points_0", "seed_-1", "index_2**53+1", "res_0x0", "res_512x0"])
    def test_out_of_range_sample_is_exit_two(self, tmp_path, capsys,
                                             m5_model, flags, message):
        # the flags are refused before the model loads: this model's
        # heights alone would exit 4
        data = copy.deepcopy(m5_model)
        set_ellipsoids("height", times_1000)(data)
        path = tmp_path / "model.json"
        write_json(path, data)
        code = main(["verify", "--model", str(path)] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and message in err

    def test_largest_sample_index_verifies(self, tmp_path, capsys):
        out = synthesized(tmp_path)
        code = main(["verify", "--model", str(out / "model.json"),
                     "--points", "1", "--seed", str(2 ** 53 - 1)])
        assert code == 0
        assert "membership: 1 points" in capsys.readouterr().out


# a verify in a fresh interpreter, which reports whether it imported
# numpy.ma (whose first import costs more than a small verify's oracle)
COLD_VERIFY = """
import sys
sys.path.insert(0, sys.argv[1])
from reebforge.cli import main
code = main(["verify", "--model", sys.argv[2]])
print(code, "numpy.ma" in sys.modules)
"""


class TestColdVerify:
    @pytest.mark.parametrize("kw", [
        {"mults": random.Random(64).sample([2] * 32 + [3] * 32, 64)},
        {"mults": (1, 3, 2, 1), "mode": "line"},
        {"mults": (2, 2, 2), **M5_HANDLE},
    ], ids=["cycle64", "line", "handle"])
    def test_leaves_numpy_ma_unimported(self, tmp_path, kw):
        out = synthesized(tmp_path, **kw)
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", COLD_VERIFY, str(src),
             str(out / "model.json")],
            capture_output=True, text=True, timeout=300)
        assert done.stdout.split()[-2:] == ["0", "False"], (
            done.stdout + done.stderr)


class TestPlot:
    def test_from_spec(self, tmp_path):
        spec = spec_file(tmp_path)
        out = tmp_path / "plots"
        assert main(["plot", "--spec", str(spec), "--out", str(out)]) == 0
        svg = (out / "plot.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_from_model_and_arrangement(self, tmp_path):
        out = synthesized(tmp_path)
        assert main(["plot", "--model", str(out / "model.json"),
                     "--out", str(tmp_path / "p1")]) == 0
        assert main(["plot", "--arrangement",
                     str(out / "arrangement.json"),
                     "--out", str(tmp_path / "p2")]) == 0
        a = (tmp_path / "p1" / "plot.svg").read_text()
        b = (tmp_path / "p2" / "plot.svg").read_text()
        assert a == b

    def test_sources_are_exclusive(self, tmp_path):
        out = synthesized(tmp_path)
        code = main(["plot", "--model", str(out / "model.json"),
                     "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "p")])
        assert code == 2


class TestExport:
    def test_json(self, tmp_path):
        out = synthesized(tmp_path, mults=())
        assert main(["export", "--model", str(out / "model.json"),
                     "--out", str(out)]) == 0
        data = json.loads((out / "expanded.json").read_text())
        assert data["ordering"] == "grlex"
        assert len(data["monomials"]) == 7

    def test_text(self, tmp_path):
        out = synthesized(tmp_path, mults=())
        assert main(["export", "--model", str(out / "model.json"),
                     "--out", str(out), "--format", "text"]) == 0
        text = (out / "expanded.txt").read_text()
        assert text.startswith("P(x1,x2,x3) = ")

    def test_inconsistent_variables(self, tmp_path, m5_model):
        data = copy.deepcopy(m5_model)
        set_variables(data)
        path = tmp_path / "model.json"
        write_json(path, data)
        assert main(["export", "--model", str(path),
                     "--out", str(tmp_path)]) == 4

    def test_oversized_expansion_refused_early(self, tmp_path, capsys):
        # the m = 13 model of the first deep_handles benchmark round: its
        # last product passes a million monomials
        out = synthesized(tmp_path, dimension=13, handles=[
            {"edge": [1, 1], "sequence": [1] * 6},
            {"edge": [2, 2], "sequence": [1] * 6}])
        start = time.perf_counter()
        assert main(["export", "--model", str(out / "model.json"),
                     "--out", str(out)]) == 4
        # the support pass refuses it in well under a second; the
        # coefficient work it skips took minutes
        assert time.perf_counter() - start < 30
        assert "monomial count exceeded 1000000" in capsys.readouterr().err
        assert not (out / "expanded.json").exists()

    @pytest.mark.parametrize("bits", ["15", "0", "-5"])
    def test_precision_below_sixteen_refused_before_loading(
            self, tmp_path, capsys, m5_model, bits):
        # the model would exit 4 on load: exit 2 shows the flag is first
        data = copy.deepcopy(m5_model)
        set_ellipsoids("height", times_1000)(data)
        path = tmp_path / "model.json"
        write_json(path, data)
        assert main(["export", "--model", str(path), "--out",
                     str(tmp_path), "--precision-bits", bits]) == 2
        assert "--precision-bits must be an integer >= 16" in \
            capsys.readouterr().err

    def test_precision_sixteen_prints_proved_digits(self, tmp_path,
                                                    m5_model):
        path = tmp_path / "model.json"
        write_json(path, m5_model)
        balls = {}
        for bits in ("16", "128"):
            out = tmp_path / bits
            assert main(["export", "--model", str(path), "--out", str(out),
                         "--precision-bits", bits]) == 0
            data = json.loads((out / "expanded.json").read_text())
            balls[bits] = {tuple(m["exponents"]): (Fraction(m["coefficient"]),
                                                   Fraction(m["radius"]))
                           for m in data["monomials"]}
        assert balls["16"].keys() == balls["128"].keys()
        for key, (c, r) in balls["16"].items():
            fine, fine_r = balls["128"][key]
            assert abs(c - fine) <= r + fine_r
        # 16 bits leave some coefficients with no proved digit
        assert any(c == 0 for c, _ in balls["16"].values())


class TestExtend:
    def test_writes_inequality(self, tmp_path):
        out = synthesized(tmp_path)
        assert main(["extend", "--model", str(out / "model.json"),
                     "--out", str(out)]) == 0
        data = json.loads((out / "extension.json").read_text())
        assert data["inequality"]["relation"] == ">= 0"
        assert data["no_singular_points_claimed"] is True

    def test_every_derived_leaf_is_checked(self, tmp_path, m5_model):
        # spec, arrangement and the ellipsoid heights are the only data in
        # a model; a change to any other leaf must be refused on load
        paths = [path for key, node in m5_model.items()
                 if key not in ("spec", "arrangement")
                 for path in leaf_paths(node, (key,))]
        assert {path[0] for path in paths} == {
            "dimension", "ambient_dimension", "degree", "polynomial", "sites"}
        accepted = []
        for path in paths:
            data = copy.deepcopy(m5_model)
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = mutated(node[path[-1]])
            model = tmp_path / "model.json"
            write_json(model, data)
            code = main(["extend", "--model", str(model),
                         "--out", str(tmp_path / "x")])
            if code not in (2, 4):
                accepted.append((path, code))
        assert accepted == []


class TestCheckGraph:
    def test_good_graph(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        write_json(path, THETA_GRAPH)
        code = main(["check-graph", "--graph", str(path),
                     "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.count(": pass") == 3
        report = json.loads((tmp_path / "graph_report.json").read_text())
        assert report["ok"] is True

    def test_degree_two_vertex_fails(self, tmp_path, capsys):
        bad = {"vertices": [{"id": 0, "angle": "0/1 of 2pi"},
                            {"id": 1, "angle": "1/2 of 2pi"}],
               "edges": [{"ends": [0, 1], "sides": [1, -1]},
                         {"ends": [0, 1], "sides": [-1, 1]}]}
        path = tmp_path / "graph.json"
        write_json(path, bad)
        assert main(["check-graph", "--graph", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        first = synthesized(tmp_path)
        spec = tmp_path / "spec.json"
        again = tmp_path / "again"
        assert main(["synthesize", "--spec", str(spec), "--out",
                     str(again)]) == 0
        for name in ("model.json", "arrangement.json", "certificate.json"):
            assert (first / name).read_bytes() == (again / name).read_bytes()


class TestPrecisionPlumbing:
    def test_environment_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REEBFORGE_PRECISION", "256")
        out = synthesized(tmp_path)
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["precision_bits"] == 256

    def test_flag_beats_spec_file(self, tmp_path):
        spec = spec_file(tmp_path, precision_bits=192)
        out = tmp_path / "out"
        assert main(["synthesize", "--spec", str(spec), "--out", str(out),
                     "--precision-bits", "320"]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["precision_bits"] == 320

    def test_spec_file_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REEBFORGE_PRECISION", "256")
        spec = spec_file(tmp_path, precision_bits=192)
        out = tmp_path / "out"
        assert main(["synthesize", "--spec", str(spec),
                     "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["precision_bits"] == 192
