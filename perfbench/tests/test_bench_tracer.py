"""The benchmark's tracer: self times, generator spans, and wrappers
that reach calls bound at import time."""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_duration_minus_covered_child_intervals():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    inner = tr.wrap("inner", lambda dt: clock.advance(dt))

    def outer_body():
        clock.advance(1.0)
        inner(2.0)
        clock.advance(0.5)
        inner(3.0)
        clock.advance(0.25)

    tr.wrap("outer", outer_body)()
    times = tr.self_times()
    assert times == {"outer": 1.75, "inner": 5.0}
    assert tr.calls("inner") == 2


def test_generator_spans_are_charged_per_next():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def produce():
        for _ in range(3):
            clock.advance(1.0)   # work of the generator
            yield None
        clock.advance(0.5)       # work done before StopIteration

    gen = tr.wrap("gen", produce)

    def consume():
        for _ in gen():
            clock.advance(10.0)  # the consumer's own work

    tr.wrap("consumer", consume)()
    times = tr.self_times()
    assert times["gen"] == 3.5
    assert times["consumer"] == 30.0
    assert tr.calls("gen") == 4  # three items and the final StopIteration


def test_generator_closed_early_closes_the_wrapped_one():
    closed = []

    def produce():
        try:
            while True:
                yield 1
        finally:
            closed.append(True)

    tr = Tracer()
    it = tr.wrap("gen", produce)()
    next(it)
    it.close()
    assert closed == [True]


def _traced_demo(tmp_path, *extra):
    spans = tmp_path / "spans.json"
    argv = [sys.executable, os.path.join(BENCH, "traced_cli.py"),
            "--spans", str(spans), *extra, "--", "diagnose",
            "--model", os.path.join(ROOT, "models", "demo.tra"),
            "--labels", os.path.join(ROOT, "models", "demo.lab"),
            "--props-file", os.path.join(ROOT, "models", "demo.props")]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1, proc.stderr
    return json.loads(spans.read_text())


def test_wrappers_catch_calls_bound_at_import_time(tmp_path):
    out = _traced_demo(tmp_path)
    # cli.check_property and the counterexample module's own import of it
    # are separate bindings; both calls must be seen.
    assert out["calls"]["checker.check"] == 2
    assert out["calls"]["checker.pmax"] == 2
    assert out["calls"]["counterexample.build"] == 1
    assert out["operation_count"] == 41


def test_memory_mode_records_peaks(tmp_path):
    out = _traced_demo(tmp_path, "--memory")
    assert out["peak_bytes"]["counterexample.build"] > 0
    assert out["peak_bytes"]["diagnosis.generate"] > 0
