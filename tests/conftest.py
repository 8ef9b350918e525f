import os
import sys

import pytest

import mdpdiag.checker

# make the shared oracle helpers importable from every test module
sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def pmax_runs(monkeypatch):
    """Count the value-iteration runs, each a memo miss of compute_pmax."""
    calls = []
    run = mdpdiag.checker._value_iteration

    def counting(*args):
        calls.append(args)
        return run(*args)

    monkeypatch.setattr(mdpdiag.checker, "_value_iteration", counting)
    return calls
