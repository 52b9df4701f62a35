"""Every library attribute the benchmark's tracer wraps must still resolve,
so a deletion that would break ``perfbench/run.py --trace 1`` fails here."""

import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_attribute_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    library = types.SimpleNamespace(**{
        name: importlib.import_module(f"retroselect.{name}")
        for name in ("chem", "data", "encoder", "autodiff", "training", "index",
                     "scoring", "search", "toy")})
    missing = [f"{target.name}: {getattr(owner, '__name__', owner)}.{attr}"
               for target in layers.targets(library)
               for owner, attr in target.sites if not hasattr(owner, attr)]
    assert not missing
