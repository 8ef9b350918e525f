"""The benchmark's inputs depend on the seed alone, and its reference
answers agree with each other."""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import workloads  # noqa: E402

GENERATORS = [workloads.random_sparse, workloads.deep_chain,
              workloads.slow_exit]
OK_U_GOAL = reference.Until(lambda aps: "ok" in aps, lambda aps: "goal" in aps)


def _files(gen, directory, seed):
    directory.mkdir()
    paths = gen(str(directory), seed)[:2]
    return [open(path, "rb").read() for path in paths]


@pytest.mark.parametrize("gen", GENERATORS)
def test_same_seed_gives_identical_files(gen, tmp_path):
    assert _files(gen, tmp_path / "a", 7) == _files(gen, tmp_path / "b", 7)


@pytest.mark.parametrize("gen", GENERATORS)
def test_another_seed_gives_other_files(gen, tmp_path):
    assert _files(gen, tmp_path / "a", 1) != _files(gen, tmp_path / "b", 2)


@pytest.mark.parametrize("gen", [workloads.deep_chain, workloads.slow_exit])
def test_closed_form_matches_linear_program(gen, tmp_path):
    tra, lab, closed = gen(str(tmp_path), 3)
    model = reference.parse_explicit(open(tra).read(), open(lab).read())
    assert reference.pmax_lp(model, OK_U_GOAL) == pytest.approx(closed,
                                                                rel=1e-9)


def test_counterexample_check_rescores_paths(tmp_path):
    tra, lab, _ = workloads.slow_exit(str(tmp_path), 3)
    model = reference.parse_explicit(open(tra).read(), open(lab).read())
    hub = model.init
    (go, loop), = [(a, dist[0][0]) for (s, a), dist in model.trans.items()
                   if s == hub and dist[0][0] != hub]
    goal = next(s for s, aps in model.labels.items() if "goal" in aps)

    def cx(prob):
        return json.dumps({"paths": [{"states": [hub, loop, goal],
                                      "actions": [go, "back"],
                                      "probability": prob}]})

    q = workloads.SLOW_EXIT_Q
    assert reference.check_counterexample(model, OK_U_GOAL, cx(q), q / 2,
                                          0.5) == []
    assert reference.check_counterexample(model, OK_U_GOAL, cx(2 * q), q / 2,
                                          0.5)
