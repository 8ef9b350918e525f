"""Run one `mdpdiag` command in this process with spans around its layers.

    python3 perfbench/traced_cli.py --spans OUT.json [--memory] -- ARGS...

ARGS are the arguments of the `mdpdiag` command line. The report goes to
stdout as usual and the exit code is the command's. OUT.json receives
the self time of every traced layer, call counts, and the sizes read off
the objects the layers returned. With --memory, the counterexample build
(minus its nested check) and the diagnosis run under tracemalloc and
their peaks are recorded instead; their times are then not meaningful.
"""

from __future__ import annotations

import argparse
import json
import sys

import mdpdiag.cli
from tracer import Tracer, install

# span name -> (module, public function)
TARGETS = {
    "cli.main": ("mdpdiag.cli", "main"),
    "program.parse": ("mdpdiag.program", "parse_program"),
    "program.elaborate": ("mdpdiag.program", "build_mdp"),
    "mdp.parse_explicit": ("mdpdiag.mdp", "parse_explicit_model"),
    "mdp.construct": ("mdpdiag.mdp", "Mdp.__init__"),
    "mdp.validate": ("mdpdiag.mdp", "validate_mdp"),
    "mdp.induce": ("mdpdiag.mdp", "induce_dtmc"),
    "checker.check": ("mdpdiag.checker", "check_property"),
    "checker.pmax": ("mdpdiag.checker", "compute_pmax"),
    "checker.extract": ("mdpdiag.checker", "extract_max_scheduler"),
    "counterexample.build": ("mdpdiag.counterexample", "build_mipcx"),
    "counterexample.enumerate": ("mdpdiag.counterexample",
                                 "enumerate_satisfying_paths"),
    "counterexample.export": ("mdpdiag.counterexample",
                              "counterexample_to_json"),
    "counterexample.import": ("mdpdiag.counterexample",
                              "counterexample_from_json"),
    "counterexample.verify": ("mdpdiag.counterexample",
                              "verify_counterexample"),
    "diagnosis.generate": ("mdpdiag.diagnosis", "generate_diagnoses"),
    "diagnosis.render": ("mdpdiag.diagnosis", "render_text_report"),
}

MEMORY_SPANS = frozenset({"counterexample.build", "diagnosis.generate"})
MEMORY_EXCLUDED = frozenset({"checker.check"})


def summary(tracer: Tracer) -> dict:
    """Self times, call counts and sizes of one traced command."""
    res = tracer.results
    out: dict = {
        "self_s": tracer.self_times(),
        "calls": {name: tracer.calls(name) for name in TARGETS},
        "peak_bytes": tracer.peaks,
        "pmax": [v.pmax for v in res.get("checker.check", ())],
        "sweeps": sum(vv.iterations for vv in res.get("checker.pmax", ())),
    }
    models = [m for m, _ in res.get("program.elaborate", ())]
    models += res.get("mdp.parse_explicit", [])
    if models:
        m = models[0]
        out["states"] = m.num_states
        out["transitions"] = sum(len(d) for _, d in m.transition_items())
    if "mdp.induce" in res:
        out["induced_states"] = len(res["mdp.induce"][0].states)
    cxs = res.get("counterexample.build") or res.get("counterexample.import")
    if cxs:
        cx = cxs[0]
        out["path_steps"] = sum(len(wp.path) for wp in cx.paths)
        out["mass"] = cx.total_mass
    if "diagnosis.generate" in res:
        out["operation_count"] = res["diagnosis.generate"][0].operation_count
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--memory", action="store_true")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    tracer = Tracer()
    if opts.memory:
        tracer.measure, tracer.exclude = MEMORY_SPANS, MEMORY_EXCLUDED
    install(tracer, TARGETS)
    code = mdpdiag.cli.main(args)
    sys.stdout.flush()
    with open(opts.spans, "w", encoding="utf-8") as fh:
        json.dump(summary(tracer), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
