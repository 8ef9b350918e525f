import os
import sys

import pytest

import mdpdiag.checker

# make the shared oracle helpers importable from every test module
sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def sweep_calls(monkeypatch):
    """Count the value-iteration runs: each runs _sweep exactly once."""
    calls = []
    sweep = mdpdiag.checker._sweep

    def counting(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(mdpdiag.checker, "_sweep", counting)
    return calls
