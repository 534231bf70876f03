"""The benchmark's trace still wraps the functions it names.

`perfbench/spans.py` rebinds `reebforge` functions by name; a rename in the
package would otherwise surface only when the traced benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

M5_SPEC = {"mode": "circle", "vertices": 3, "multiplicities": [2, 2, 2],
           "dimension": 5, "handles": [{"edge": [1, 1], "sequence": [1, 0]}]}

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import spans
from reebforge import cli
tracer = spans.Tracer()
spans.install(tracer)
out = sys.argv[3]
assert cli.main(["synthesize", "--spec", sys.argv[2], "--out", out]) == 0
assert cli.main(["verify", "--model", out + "/model.json"]) == 0
values = tracer.values
assert values["poly.ellipsoid_height_calls"] > 0, dict(values)
assert values["poly.containment_attempts"] > 0, dict(values)
# one certified sweep pass per certificate: the graph, Euler report and
# fibre table are read from it without a second pass
assert values["sweep.passes"] == 2, dict(values)
"""


def test_traced_synthesize_and_verify(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(M5_SPEC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(spec),
         str(tmp_path / "model")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
