"""The mdpdiag benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
`mdpdiag` package in `src/`, run as a fresh `python3 -m mdpdiag.cli`
process per query, the way users run it. One client sends one query at
a time (a closed loop).

Each run generates the workload's inputs from the seed, computes the
reference answers without `mdpdiag.checker`, and makes one untimed
verification pass: a `diagnose` that exports its counterexample, which
is checked path by path against the model, a `check` and a
`diagnose-trace`; the verdicts and the Pmax they report are checked
against the reference, and the digests of their reports are kept. The
timed queries then run for S seconds, each between two runs of
calibrate.py (see CAL_REF_S), and any query with another exit code,
another report digest, or a run over QUERY_BUDGET_S counts as failed.

With --trace 0 it repeats rounds of `diagnose`, `check`,
`diagnose-trace` and `--help` and prints the end-to-end metrics, medians
over the rounds. With --trace 1 it repeats rounds of `--help`, an
untraced and a traced `diagnose` and a traced `diagnose-trace`
(traced_cli.py), runs one more `diagnose` under tracemalloc for the
memory peaks, and prints the per-layer metrics, medians over the traced
queries. The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CSMA_MODEL = os.path.join(ROOT, "models", "csma.pm")
CSMA_PROPS = os.path.join(ROOT, "models", "csma.props")

import reference
import workloads

# A query running longer than this is killed and counts as failed.
QUERY_BUDGET_S = 15.0
# The timed loop runs at least MIN_ROUNDS rounds, unless that takes more
# than LOOP_CAP_S, so that a run ends within 180 s even on a slow program.
MIN_ROUNDS = 3
LOOP_CAP_S = 90.0
# Verdicts are only asserted where the reference clears the threshold
# by more than this.
VERDICT_MARGIN = 1e-3
# A reported Pmax further than this from the reference is a wrong answer;
# closer, the distance is only recorded (checker.pmax_error).
PMAX_ERROR_LIMIT = 1e-3
PMAX_RE = re.compile(r"Pmax = ([-+0-9.eE]+)")

EXIT_HOLDS = 0
EXIT_VIOLATED = 1


@dataclass
class Case:
    """A workload instance and its reference answers."""

    inputs: workloads.Inputs
    model: reference.Model
    violated: reference.Until
    violated_threshold: float
    holding_threshold: float
    violated_pmax: float
    holding_pmax: float


OK_U_GOAL = reference.Until(lambda aps: "ok" in aps, lambda aps: "goal" in aps)
# explicit workloads: generator, thresholds of the violated and the
# holding property `P<=p [ ok U goal ]`
EXPLICIT = {
    "random-sparse": (workloads.random_sparse, 0.1, 0.95),
    "deep-chain": (workloads.deep_chain, 0.01, 0.1),
    "slow-exit": (workloads.slow_exit, 0.45, 0.6),
}
THRESHOLD_RE = re.compile(r"P<=\s*([0-9.eE+-]+)")


def _threshold(prop: str) -> float:
    return float(THRESHOLD_RE.match(prop).group(1))


def _first_property(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                return line
    raise ValueError(f"{path} holds no property")


def _csma_case() -> Case:
    # Elaboration is the one step the reference borrows from mdpdiag: it
    # reads the explicit MDP off `build_mdp`, then decides the properties
    # itself.
    sys.path.insert(0, SRC)
    from mdpdiag.program import build_mdp, parse_program

    with open(CSMA_MODEL, encoding="utf-8") as fh:
        program = parse_program(fh.read(), filename=CSMA_MODEL)
    mdp, _ = build_mdp(program, {"K": workloads.CSMA_K})
    model = reference.Model(
        mdp.num_states, mdp.init,
        {(s, mdp.action_names[a]): list(d)
         for (s, a), d in mdp.transition_items()},
        {s: mdp.labels_of(s) for s in mdp.states})
    violated = reference.Until(lambda aps: "gave_up" not in aps,
                               lambda aps: "delivered_all" in aps)
    inputs = workloads.Inputs(CSMA_MODEL, None, (f"K={workloads.CSMA_K}",),
                              _first_property(CSMA_PROPS),
                              workloads.CSMA_HOLDING)
    return Case(inputs, model, violated, _threshold(inputs.violated),
                _threshold(inputs.holding), reference.pmax_lp(model, violated),
                workloads.CSMA_HOLDING_PMAX)


def prepare(name: str, seed: int, work: str) -> Case:
    """Write the inputs of one workload instance and compute its reference."""
    if name == "csma-elab":
        return _csma_case()
    generate, violated_p, holding_p = EXPLICIT[name]
    tra, lab, closed = generate(work, seed)
    with open(tra, encoding="utf-8") as fh, open(lab, encoding="utf-8") as fl:
        model = reference.parse_explicit(fh.read(), fl.read())
    pmax = closed if closed is not None else reference.pmax_lp(model,
                                                               OK_U_GOAL)
    inputs = workloads.Inputs(tra, lab, (), f"P<={violated_p} [ ok U goal ]",
                              f"P<={holding_p} [ ok U goal ]")
    return Case(inputs, model, OK_U_GOAL, violated_p, holding_p, pmax, pmax)


# -- running queries ---------------------------------------------------------


@dataclass
class Result:
    wall_s: float
    exit_code: Optional[int]   # None: killed over budget
    rss_mb: float
    digest: str
    stdout_path: str


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "mdpdiag.cli", *args]


def traced(spans: str, *args: str, memory: bool = False) -> list[str]:
    extra = ["--memory"] if memory else []
    return [sys.executable, os.path.join(HERE, "traced_cli.py"),
            "--spans", spans, *extra, "--", *args]


class Runner:
    """Runs queries through the spawner (spawner.py) and tallies them."""

    def __init__(self, work: str):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            env=dict(os.environ, PYTHONPATH=SRC), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _spawn(self, tag: str, argv: list[str]) -> Result:
        out_path = self.path(tag.replace(" ", "-") + ".out")
        self.proc.stdin.write(json.dumps({
            "argv": argv, "cwd": self.work, "stdout": out_path,
            "budget_s": QUERY_BUDGET_S}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(out_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return Result(reply["wall_s"], reply["exit_code"], reply["rss_mb"],
                      digest, out_path)

    def calibrate(self) -> Optional[Result]:
        """One run of calibrate.py, outside the tally; None if it failed."""
        res = self._spawn("calibrate", [sys.executable,
                                        os.path.join(HERE, "calibrate.py")])
        return res if res.exit_code == 0 else None

    def run(self, what: str, argv: list[str], expected_exit: int,
            digest: Optional[str] = None) -> tuple[Result, bool]:
        """Run one query; it fails on another exit code, on a report
        other than `digest` (when given), or over the budget."""
        res = self._spawn(what, argv)
        self.attempted += 1
        if res.exit_code is None:
            self.fail([f"{what}: over the {QUERY_BUDGET_S:g} s budget"])
        elif res.exit_code != expected_exit:
            self.fail([f"{what}: exit code {res.exit_code}, expected "
                       f"{expected_exit}"])
        elif digest is not None and res.digest != digest:
            self.fail([f"{what}: report differs from the verified pass"])
        else:
            return res, True
        return res, False

    def fail(self, problems: list[str]) -> None:
        """Count one failed query, for all of these problems."""
        if problems:
            self.failed += 1
            self.problems += problems


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _pmax_problem(what: str, report_path: str, pmax_ref: float) -> list[str]:
    """The Pmax a text report states, checked against the reference."""
    found = PMAX_RE.search(_read(report_path))
    reported = float(found.group(1)) if found else None
    if reported is None or abs(reported - pmax_ref) > PMAX_ERROR_LIMIT:
        return [f"{what} reports Pmax {reported!r}, the reference gives "
                f"{pmax_ref!r}"]
    return []


@dataclass
class Verified:
    """Digests of the reports of the verification pass."""

    diagnose: str
    check: str
    retrace: str
    cx_paths: int


def verify(case: Case, runner: Runner) -> Verified:
    """The untimed pass: every answer checked against the reference.

    A wrong answer counts as a failed query; the digests are kept either
    way, so the timed queries still compare against them.
    """
    inp = case.inputs
    cx_path = runner.path("cx.json")
    problems = []
    if not case.violated_pmax > case.violated_threshold + VERDICT_MARGIN:
        problems.append(f"reference Pmax {case.violated_pmax!r} does not "
                        f"clearly violate {inp.violated}")
    if not case.holding_pmax < case.holding_threshold - VERDICT_MARGIN:
        problems.append(f"reference Pmax {case.holding_pmax!r} does not "
                        f"clearly satisfy {inp.holding}")
    runner.fail(problems)

    diag, ok = runner.run("verify diagnose",
                        cli("diagnose", *inp.model_args(), "--prop",
                            inp.violated, "--export-cx", cx_path),
                        EXIT_VIOLATED)
    cx_paths = 0
    if ok:
        cx_text = _read(cx_path)
        cx_paths = len(json.loads(cx_text)["paths"])
        runner.fail(_pmax_problem("diagnose", diag.stdout_path,
                                case.violated_pmax)
                  + reference.check_counterexample(
                      case.model, case.violated, cx_text,
                      case.violated_threshold, case.violated_pmax))

    check, ok = runner.run("verify check", cli("check", *inp.model_args(),
                                             "--prop", inp.holding),
                         EXIT_HOLDS)
    if ok:
        runner.fail(_pmax_problem("check", check.stdout_path,
                                  case.holding_pmax))

    retrace, _ = runner.run("verify diagnose-trace",
                          cli("diagnose-trace", "--trace", cx_path),
                          EXIT_VIOLATED)
    return Verified(diag.digest, check.digest, retrace.digest, cx_paths)


# -- the two kinds of run ----------------------------------------------------

# Every timed query runs between two calibration runs (calibrate.py), and
# its wall time is scaled by CAL_REF_S over the mean of theirs, so times
# read as seconds on a machine that runs calibrate.py in CAL_REF_S. On a
# shared machine the raw wall time of one query swings by up to 1.6x
# within seconds; the scaled time keeps what the query itself changes.
CAL_REF_S = 0.2


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _samples(runner: Runner, queries: dict, order: tuple[str, ...],
             seconds: float):
    """Run the queries named in `order` round after round, each followed
    by a calibration run, until `seconds` have passed and at least
    MIN_ROUNDS rounds are done (or LOOP_CAP_S has passed).

    Yields (name, result, scale factor) for each query that succeeded
    between two calibration runs that did too.
    """
    start = time.perf_counter()
    before = runner.calibrate()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (done >= MIN_ROUNDS * len(order)
                                   or elapsed >= LOOP_CAP_S):
            break
        name = order[done % len(order)]
        res, ok = runner.run(name, *queries[name])
        after = runner.calibrate()
        if ok and before and after:
            yield name, res, 2 * CAL_REF_S / (before.wall_s + after.wall_s)
        before = after
        done += 1


# One round of the end-to-end run.
E2E_ROUND = ("diagnose", "check", "retrace", "setup")


def end_to_end(case: Case, seconds: float, runner: Runner,
               ver: Verified) -> dict:
    inp = case.inputs
    queries = {
        "diagnose": (cli("diagnose", *inp.model_args(), "--prop",
                         inp.violated), EXIT_VIOLATED, ver.diagnose),
        "check": (cli("check", *inp.model_args(), "--prop", inp.holding),
                  EXIT_HOLDS, ver.check),
        "retrace": (cli("diagnose-trace", "--trace", runner.path("cx.json")),
                    EXIT_VIOLATED, ver.retrace),
        "setup": (cli("--help"), EXIT_HOLDS, None),
    }
    scaled: dict[str, list[float]] = {name: [] for name in queries}
    raw: dict[str, list[float]] = {name: [] for name in queries}
    rss: list[float] = []
    for name, res, scale in _samples(runner, queries, E2E_ROUND, seconds):
        raw[name].append(res.wall_s)
        scaled[name].append(res.wall_s * scale)
        if name == "diagnose":
            rss.append(res.rss_mb)
    print("raw wall medians: " + ", ".join(
        f"{name} {_median(raw[name]):.4f} s ({len(raw[name])} samples)"
        for name in queries))
    return {
        "diagnose_s": (_median(scaled["diagnose"]), "s"),
        "check_s": (_median(scaled["check"]), "s"),
        "retrace_s": (_median(scaled["retrace"]), "s"),
        "peak_rss_mb": (_median(rss), "MB"),
        "setup_s": (_median(scaled["setup"]), "s"),
        "cx_paths": (ver.cx_paths, "count"),
        "ok_frac": ((runner.attempted - runner.failed) / runner.attempted,
                    "fraction"),
    }


# per-layer time metric -> span names whose self times it sums
LAYER_TIMES = {
    "program.parse_s": ("program.parse", "mdp.parse_explicit"),
    "program.elaborate_s": ("program.elaborate", "mdp.construct"),
    "mdp.validate_s": ("mdp.validate",),
    "mdp.induce_s": ("mdp.induce",),
    "checker.pmax_s": ("checker.check", "checker.pmax"),
    "checker.extract_s": ("checker.extract",),
    "counterexample.build_self_s": ("counterexample.build",),
    "counterexample.enumerate_s": ("counterexample.enumerate",),
    "counterexample.export_s": ("counterexample.export",),
    "diagnosis.generate_s": ("diagnosis.generate",),
    "diagnosis.render_s": ("diagnosis.render",),
    "cli.self_s": ("cli.main",),
}
# taken from the traced diagnose-trace instead
RETRACE_TIMES = {
    "counterexample.import_s": ("counterexample.import",),
    "counterexample.verify_s": ("counterexample.verify",),
}
TRACE_ROUND = ("setup", "diagnose", "traced diagnose", "traced diagnose-trace")


def per_layer(case: Case, seconds: float, runner: Runner,
              ver: Verified) -> dict:
    inp = case.inputs
    spans_d, spans_r = runner.path("spans-diagnose.json"), runner.path(
        "spans-retrace.json")
    # The same command traced and untraced, so the two walls compare.
    diag_args = ["diagnose", *inp.model_args(), "--prop", inp.violated,
                 "--export-cx", runner.path("cx-traced.json")]
    retrace_args = ["diagnose-trace", "--trace", runner.path("cx.json")]
    queries = {
        "setup": (cli("--help"), EXIT_HOLDS, None),
        "diagnose": (cli(*diag_args), EXIT_VIOLATED, ver.diagnose),
        "traced diagnose": (traced(spans_d, *diag_args), EXIT_VIOLATED,
                            ver.diagnose),
        "traced diagnose-trace": (traced(spans_r, *retrace_args),
                                  EXIT_VIOLATED, ver.retrace),
    }
    rows, retraces, plain, setups = [], [], [], []
    counts: dict = {}
    for name, res, scale in _samples(runner, queries, TRACE_ROUND, seconds):
        if name == "setup":
            setups.append(res.wall_s)
        elif name == "diagnose":
            plain.append(res.wall_s * scale)
        elif name == "traced diagnose":
            counts = json.loads(_read(spans_d))
            row = {"wall": res.wall_s * scale, "raw_wall": res.wall_s,
                   "spans": sum(counts["self_s"].values())}
            for metric, names in LAYER_TIMES.items():
                row[metric] = scale * sum(counts["self_s"].get(n, 0.0)
                                          for n in names)
            rows.append(row)
        else:
            self_s = json.loads(_read(spans_r))["self_s"]
            retraces.append({metric: scale * sum(self_s.get(n, 0.0)
                                                 for n in names)
                             for metric, names in RETRACE_TIMES.items()})

    _, ok = runner.run("memory diagnose", traced(spans_d, *diag_args,
                                               memory=True),
                     EXIT_VIOLATED, ver.diagnose)
    peaks = json.loads(_read(spans_d))["peak_bytes"] if ok else {}

    def med(key: str, samples: list[dict]) -> float:
        return _median([sample[key] for sample in samples])

    metrics = {m: (med(m, rows), "s") for m in LAYER_TIMES}
    metrics.update({m: (med(m, retraces), "s") for m in RETRACE_TIMES})
    pmax = counts.get("pmax") or [float("nan")]
    mb = 1024.0 * 1024.0
    metrics.update({
        "program.states": (counts.get("states", 0), "count"),
        "program.transitions": (counts.get("transitions", 0), "count"),
        "mdp.induced_states": (counts.get("induced_states", 0), "count"),
        "checker.sweeps": (counts.get("sweeps", 0), "count"),
        "checker.pmax_calls": (counts.get("calls", {}).get("checker.pmax", 0),
                               "count"),
        "checker.pmax_error": (abs(pmax[0] - case.violated_pmax), "prob"),
        "counterexample.path_steps": (counts.get("path_steps", 0), "count"),
        "counterexample.mass_ratio": (
            counts.get("mass", float("nan")) / case.violated_threshold,
            "ratio"),
        "counterexample.peak_mb": (peaks.get("counterexample.build", 0) / mb,
                                   "MB"),
        "diagnosis.peak_mb": (peaks.get("diagnosis.generate", 0) / mb, "MB"),
        "diagnosis.operation_count": (counts.get("operation_count", 0),
                                      "count"),
        "trace.overhead_frac": (med("wall", rows) / _median(plain) - 1.0,
                                "fraction"),
        # Every span's self time, over the traced query's wall time less
        # interpreter start-up (the --help wall): should be close to 1.
        "trace.coverage_frac": (
            med("spans", rows) / (med("raw_wall", rows) - _median(setups)),
            "fraction"),
    })
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("csma-elab", *EXPLICIT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(SRC, "mdpdiag", "cli.py")]
    if args.workload == "csma-elab":
        needed += [CSMA_MODEL, CSMA_PROPS]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: not a source checkout of mdpdiag; missing "
              f"{', '.join(os.path.relpath(p, ROOT) for p in missing)}",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    # Started first, while this process is still small (see spawner.py).
    runner = Runner(work)
    try:
        setup_start = time.perf_counter()
        case = prepare(args.workload, args.seed, work)
        print(f"{args.workload} seed {args.seed}: inputs and reference in "
              f"{time.perf_counter() - setup_start:.2f} s; reference Pmax "
              f"{case.violated_pmax!r} (violated), {case.holding_pmax!r} "
              "(holding)")
        ver = verify(case, runner)
        run = per_layer if args.trace else end_to_end
        metrics = run(case, args.seconds, runner, ver)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is using it
            pass
    for p in runner.problems:
        print(f"failed: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    # a metric with no successful sample is null, never a made-up number
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": None if value != value else value,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
