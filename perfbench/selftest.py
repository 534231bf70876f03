"""Self-test of the output checkers.

Synthesizes and exports two small models with the checkout's CLI, checks
that every checker accepts them, then that each checker rejects a
deliberately wrong copy: a wrong degree, a multiplicity sequence permuted
but not rotated, a wrong genus, a wrong fibre word, a failed verify, and a
perturbed expansion coefficient.  Takes a few seconds.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

import contextlib
import copy
import io
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402

SURFACE = {"mode": "circle", "vertices": 4, "multiplicities": [2, 3, 1, 4],
           "dimension": 2}
HANDLE = {"mode": "circle", "vertices": 3, "multiplicities": [2, 1, 2],
          "dimension": 3, "handles": [{"edge": [2, 1], "sequence": [2]}]}
VERIFY_OK = ("degree: 12\noracle: 512x256 match\n"
             "membership: 20000 points, 0 in band, ok\nverified: ok\n")


def _cli(argv) -> tuple[int, str]:
    from reebforge.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue()


def _synthesize(spec, d: Path):
    d.mkdir(parents=True)
    (d / "spec.json").write_text(json.dumps(spec))
    rc, _ = _cli(["synthesize", "--spec", d / "spec.json", "--out", d])
    model = json.loads((d / "model.json").read_text())
    cert = json.loads((d / "certificate.json").read_text())
    return rc, model, cert


def _with_counts(cert, counts):
    """Certificate whose cyclic graph has the given edge counts."""
    bad = copy.deepcopy(cert)
    k = len(counts)
    bad["reeb_graph"]["edges"] = [
        {"channel": [i + 1, c + 1], "from": i, "to": (i + 1) % k,
         "fiber": "S^1"}
        for i, n in enumerate(counts) for c in range(n)]
    return bad


def run(work: Path) -> list[str]:
    failures = []

    def expect(name, problems, ok):
        if bool(problems) == ok:
            failures.append("%s: %s" % (name, problems or "accepted"))

    rc, model, cert = _synthesize(SURFACE, work / "surface")
    expect("surface synthesize", ["exit %d" % rc] if rc else
           checks.check_synthesize(SURFACE, model, cert), ok=True)
    rc_h, model_h, cert_h = _synthesize(HANDLE, work / "handle")
    expect("handle synthesize", ["exit %d" % rc_h] if rc_h else
           checks.check_synthesize(HANDLE, model_h, cert_h), ok=True)

    bad = copy.deepcopy(model)
    bad["degree"] += 2
    expect("wrong degree", checks.check_synthesize(SURFACE, bad, cert),
           ok=False)
    # (2,3,1,4) rotated and reflected is the same cycle; (3,2,1,4) is not
    for counts, ok in (([1, 4, 2, 3], True), ([4, 1, 3, 2], True),
                       ([3, 2, 1, 4], False)):
        expect("cycle %s" % counts, checks.check_synthesize(
            SURFACE, model, _with_counts(cert, counts)), ok=ok)
    bad = copy.deepcopy(cert)
    bad["euler"]["genus"] += 1
    expect("wrong genus", checks.check_synthesize(SURFACE, model, bad),
           ok=False)
    bad = copy.deepcopy(cert_h)
    for row in bad["fibers"]["rows"]:
        if row["sector"] == 2:
            row["word"] = "S^1 x S^1"
    expect("wrong fibre word", checks.check_synthesize(
        HANDLE, model_h, bad), ok=False)

    expect("verify ok", checks.check_verify(VERIFY_OK), ok=True)
    expect("verify short sample", checks.check_verify(
        VERIFY_OK.replace("20000", "2000")), ok=False)
    expect("verify not ok", checks.check_verify(
        VERIFY_OK.replace("verified: ok", "verified: FAILED")), ok=False)

    out = work / "export"
    out.mkdir()
    rc_e, _ = _cli(["export", "--model", work / "surface" / "model.json",
                    "--out", out])
    expanded = json.loads((out / "expanded.json").read_text())
    expect("export", ["exit %d" % rc_e] if rc_e else
           checks.check_export(model, expanded), ok=True)
    bad = copy.deepcopy(expanded)
    x = checks.export_points(model)[0]
    terms = checks.expansion_terms(bad, x)
    biggest = max(range(len(terms)), key=lambda i: abs(terms[i]))
    mono = bad["monomials"][biggest]
    mono["coefficient"] = repr(float(mono["coefficient"]) * (1 + 1e-3))
    expect("perturbed coefficient", checks.check_export(model, bad), ok=False)
    bad = copy.deepcopy(expanded)
    bad["monomials"] = [m for m in bad["monomials"]
                        if sum(m["exponents"]) < model["degree"]]
    expect("expansion degree", checks.check_export(model, bad), ok=False)
    return failures


def main() -> int:
    if not os.path.isfile(os.path.join("src", "reebforge", "cli.py")):
        print("selftest: run from the root of a reebforge checkout",
              file=sys.stderr)
        return 2
    work = Path(".perfbench") / ("selftest-%d" % os.getpid())
    work.mkdir(parents=True)
    try:
        failures = run(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in failures:
        print("FAIL " + line)
    print("checker self-test: %s" % ("failed" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
