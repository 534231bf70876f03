"""Benchmark of the reebforge command line on seeded graph specs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

The run imports the program from the checkout's `src`, generates the
workload's specs from the seed, and repeats whole rounds of `reebforge
synthesize`, `verify` and `export` for about `--seconds` seconds, each
operation in its own forked process (see harness.py).  Every output is
checked apart from the program (see checks.py).  With `--trace 1` the run
repeats the workload's first round, each operation once untraced and once
traced, and reports per-layer metrics (see spans.py) and the tracing
overhead instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it give
the same figures for people.  A full record of the run, with the
environment it ran in, goes to `.perfbench/results/`, and the traced run's
per-operation spans to `.perfbench/traces/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# numpy sizes its thread pools when it is imported, so pin them first
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from harness import run_cli  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".perfbench"
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 30
TAMPERED_EXIT = 4

END_TO_END = (
    ("setup_s", "s"),
    ("synthesize_s", "s"),
    ("verify_s", "s"),
    ("export_s", "s"),
    ("specs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("model_kib", "KiB"),
)


class Fatal(Exception):
    """The run cannot produce a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(root: Path) -> dict:
    import mpmath
    import mpmath.libmp
    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except OSError:
        commit = ""
    return {"commit": commit or "unknown",
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(),
            "machine": platform.machine()}


def measure_setup(root: Path, work: Path, workload: str, seed: int):
    """Median over fresh interpreters of importing reebforge.cli and
    generating the workload's inputs; returns it with the inputs."""
    out = work / "inputs.json"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
             str(seed), str(out)],
            cwd=root, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise Fatal("set-up failed:\n" + proc.stderr)
    return statistics.median(times), times, json.loads(out.read_text())


def _read_json(path: Path):
    return json.loads(path.read_text()) if path.is_file() else None


class Runner:
    """Runs tasks, checks their outputs and keeps one record per
    operation."""

    def __init__(self, work: Path, traced: bool):
        self.work = work
        self.traced = traced
        self.records = []
        self.problems = []
        self.fixed = {}
        self.fixed_bytes = {}

    def _op(self, round_index, slot, kind, argv, log, check, expect=0,
            seeded=False):
        """Run one operation (untraced, then traced in a traced run)."""
        for traced in ((False, True) if self.traced else (False,)):
            op = run_cli([str(a) for a in argv], log, traced=traced)
            failed = op.rc != expect
            rec = {"round": round_index, "slot": slot, "op": kind,
                   "seeded": seeded, "traced": traced, "rc": op.rc,
                   "wall_s": op.wall_s, "peak_rss_mib": op.peak_rss_mib,
                   "failed": failed}
            if op.spans is not None:
                rec["spans"] = op.spans
            if failed:
                rec["output_tail"] = op.output[-400:]
            else:
                try:
                    problems = check(op)
                except (KeyError, TypeError, ValueError) as exc:
                    problems = ["malformed output: %r" % exc]
                for problem in problems:
                    self.problems.append("round %d %s %s: %s"
                                         % (round_index, slot, kind, problem))
            self.records.append(rec)
        return not failed

    def _skipped(self, round_index, slot, kind):
        for traced in ((False, True) if self.traced else (False,)):
            self.records.append({"round": round_index, "slot": slot,
                                 "op": kind, "seeded": True,
                                 "traced": traced, "rc": None, "wall_s": 0.0,
                                 "peak_rss_mib": 0.0, "failed": True})

    def prepare_fixed(self, items):
        """Synthesize the seed-independent models; none of them counts as
        an attempted operation."""
        for item in items:
            name, spec = item["name"], item["spec"]
            d = self.work / "fixed" / name
            d.mkdir(parents=True)
            (d / "spec.json").write_text(json.dumps(spec))
            op = run_cli(["synthesize", "--spec", str(d / "spec.json"),
                          "--out", str(d)], d / "log.txt")
            model = _read_json(d / "model.json")
            problems = (checks.check_synthesize(
                spec, model, _read_json(d / "certificate.json"))
                if op.rc == 0 else ["exit %d: %s" % (op.rc, op.output[-400:])])
            if problems:
                raise Fatal("fixed model %s: %s" % (name, "; ".join(problems)))
            self.fixed[name] = (d / "model.json", model)
            self.fixed_bytes[name] = (d / "model.json").stat().st_size
            if name == workloads.TAMPER_SPEC[0]:
                tampered = _tamper(model)
                (d / "tampered.json").write_text(json.dumps(tampered))

    def run_task(self, task: dict, round_index: int):
        slot = task["slot"]
        d = self.work / "tasks" / ("r%d-%s" % (round_index, slot))
        d.mkdir(parents=True)
        log = d / "log.txt"
        if "export_of" in task:
            path, model = self.fixed[task["export_of"]]
            self._op(round_index, slot, "export",
                     ["export", "--model", path, "--out", d, "--format",
                      "json"], log,
                     lambda op: checks.check_export(
                         model, _read_json(d / "expanded.json")))
        elif "tampered_of" in task:
            path = self.fixed[task["tampered_of"]][0].with_name(
                "tampered.json")
            self._op(round_index, slot, "tampered_verify",
                     ["verify", "--model", path], log, lambda op: [],
                     expect=TAMPERED_EXIT)
        else:
            self._spec_task(task, d, log, round_index)
        shutil.rmtree(d)

    def _spec_task(self, task, d, log, round_index):
        slot, spec = task["slot"], task["spec"]
        (d / "spec.json").write_text(json.dumps(spec))
        model_path = d / "model.json"
        state = {}

        def check_synth(op):
            state["model"] = model = _read_json(model_path)
            return checks.check_synthesize(
                spec, model, _read_json(d / "certificate.json"))

        argv = {"synthesize": ["synthesize", "--spec", d / "spec.json",
                               "--out", d],
                "verify": ["verify", "--model", model_path],
                "export": ["export", "--model", model_path, "--out", d,
                           "--format", "json"]}
        check = {"synthesize": check_synth,
                 "verify": lambda op: checks.check_verify(op.output),
                 "export": lambda op: checks.check_export(
                     state["model"], _read_json(d / "expanded.json"))}
        ok = True
        for kind in task["ops"]:
            if ok:
                ok = self._op(round_index, slot, kind, argv[kind], log,
                              check[kind], seeded=True)
            else:
                self._skipped(round_index, slot, kind)


def _tamper(model: dict) -> dict:
    """Copy of a model with every ellipsoid height multiplied."""
    out = json.loads(json.dumps(model))
    factors = [f for s in out["polynomial"]["stages"] for f in s["factors"]]
    factors += [s["factor"] for s in out["sites"]]
    for f in factors:
        if f["kind"] == "ellipsoid":
            h = Fraction(f["height"]) * workloads.TAMPER_FACTOR
            f["height"] = "%d/%d" % (h.numerator, h.denominator)
    return out


def _slot_median(values) -> float:
    """Mean over slots of the median value each slot took over the
    rounds; `values` holds (slot, value) pairs."""
    by_slot = defaultdict(list)
    for slot, value in values:
        by_slot[slot].append(value)
    if not by_slot:
        raise Fatal("no successful operation to take a time from")
    return statistics.fmean(statistics.median(v) for v in by_slot.values())


def end_to_end(records, setup_s, model_kib) -> dict:
    """Slot medians of the run's operations: for each slot of a round, the
    median over the rounds of its synthesize, verify (not the tampered
    copies) and export times and of its spec's time through all of its
    operations, averaged over the slots; and the median over seeded specs
    of each spec's highest peak RSS."""
    ok = [r for r in records if not r["failed"]]

    def wall(kind):
        return _slot_median((r["slot"], r["wall_s"])
                            for r in ok if r["op"] == kind)

    groups = defaultdict(list)
    for rec in records:
        if rec["seeded"]:
            groups[(rec["round"], rec["slot"])].append(rec)
    complete = [g for g in groups.values() if not any(r["failed"] for r in g)]
    if not complete:
        raise Fatal("no seeded spec went through all of its operations")
    return {
        "setup_s": setup_s,
        "synthesize_s": wall("synthesize"),
        "verify_s": wall("verify"),
        "export_s": wall("export"),
        "specs_per_s": 1.0 / _slot_median(
            (g[0]["slot"], sum(r["wall_s"] for r in g)) for g in complete),
        "peak_rss_mib": statistics.median(
            max(r["peak_rss_mib"] for r in g) for g in complete),
        "model_kib": model_kib,
    }


def per_layer(records) -> tuple[dict, list]:
    """Per-layer metrics: self times are medians over the repetitions of
    the traced round, counts those of one repetition, which must all
    agree."""
    by_rep = defaultdict(list)
    for rec in records:
        by_rep[rec["round"]].append(rec)
    layers, warnings = [], []
    for rep in sorted(by_rep):
        recs = by_rep[rep]
        values = spans.combine(r["spans"] for r in recs if r.get("spans"))
        values["trace.overhead_s"] = (
            sum(r["wall_s"] for r in recs if r["traced"])
            - sum(r["wall_s"] for r in recs if not r["traced"]))
        layers.append(values)
    out = {}
    for name, unit, _ in spans.PER_LAYER:
        series = [v[name] for v in layers]
        if unit == "s":
            out[name] = statistics.median(series)
        else:
            out[name] = series[0]
            if any(v != series[0] for v in series):
                warnings.append("%s differs between repetitions: %s"
                                % (name, series))
    return out, warnings


def repeat(step, seconds: float) -> tuple[int, float]:
    """Call step(0), then step(1), step(2), ... as long as the next call,
    taking the mean time of those before it, ends within `seconds` of the
    first.  Returns the calls made and the time they took."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if done and elapsed * (done + 1) / done > seconds:
            return done, elapsed
        step(done)
        done += 1


def execute(args, root: Path, work: Path) -> int:
    setup_s, setup_times, inputs = measure_setup(root, work, args.workload,
                                                 args.seed)
    sys.path.insert(0, str(root / "src"))
    import reebforge.cli  # noqa: F401  (imported once, called only in children)
    # keep the collector off the imported objects, so children do not copy
    # the pages that hold them
    gc.freeze()

    runner = Runner(work, traced=bool(args.trace))
    runner.prepare_fixed(inputs["fixed"])
    rounds = inputs["rounds"]
    if args.trace:
        # every repetition runs the first round, which has every slot
        def step(rep):
            for task in rounds[0]:
                runner.run_task(task, rep)
    else:
        def step(r):
            for task in rounds[r % len(rounds)]:
                runner.run_task(task, r)
    done, elapsed = repeat(step, args.seconds)

    records = runner.records
    attempted = len(records)
    failed = sum(1 for r in records if r["failed"])
    warnings = []
    if args.trace:
        metrics, warnings = per_layer(records)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        named = [name for name, _ in workloads.NAMED_CORPUS]
        metrics = end_to_end(records, setup_s, sum(
            runner.fixed_bytes[name] for name in named) / 1024.0)
        units = dict(END_TO_END)
    correct = not runner.problems

    label = "repetitions" if args.trace else "rounds"
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(root), "elapsed_s": elapsed,
              label: done, "setup_times_s": setup_times, "metrics": metrics,
              "attempted": attempted, "failed": failed,
              "correct": correct, "problems": runner.problems,
              "warnings": warnings,
              "records": [{k: v for k, v in r.items() if k != "spans"}
                          for r in records]}
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    _write(root / OUT_DIR / "results" / name, result)
    if args.trace:
        _write(root / OUT_DIR / "traces" / name,
               [r for r in records if r.get("spans")])

    print("workload %s, seed %d: %d %s in %.1f s, %d operations attempted, "
          "%d failed" % (args.workload, args.seed, done, label, elapsed,
                         attempted, failed))
    for key, value in metrics.items():
        print("  %-36s %14.6g %s" % (key, value, units[key]))
    for line in runner.problems + warnings:
        print("  problem: " + line, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def _write(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "reebforge" / "cli.py").is_file():
        print("perfbench: %s/src/reebforge is missing; run from the root of "
              "a reebforge checkout" % root, file=sys.stderr)
        return 2
    work = root / OUT_DIR / "work" / ("%s-%d-%d" % (args.workload, args.seed,
                                                    os.getpid()))
    work.mkdir(parents=True)
    try:
        return execute(args, root, work)
    except Fatal as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
