"""The benchmark's tracer still finds every attribute it wraps.

perfbench/tracer.py patches module attributes of lblift from outside the
package; a refactor that drops one of them would break only traced
benchmark runs.  Entering and leaving the tracer once catches that here.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    targets = [(owner, attr) for owner, attr, *_ in tracer._FUNCTION_TARGETS]
    targets += [(owner, attr) for owner, attr, _ in tracer._METHOD_TARGETS]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    with tracer.Tracer():
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(targets, originals))
