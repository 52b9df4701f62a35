"""Every library attribute the benchmark's tracer wraps must still resolve,
so a deletion that would break ``perfbench/run.py --trace 1`` fails here;
and a library module may import a name it never reads only where the
tracer wraps that name."""

import ast
import importlib
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
LIBRARY = ROOT / "src" / "retroselect"


def traced_sites(monkeypatch):
    """(owner, attribute) of every site ``layers.targets`` wraps."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    library = types.SimpleNamespace(**{
        name: importlib.import_module(f"retroselect.{name}")
        for name in ("chem", "data", "encoder", "autodiff", "training", "index",
                     "scoring", "search", "toy")})
    return [site for target in layers.targets(library) for site in target.sites]


def test_every_traced_attribute_resolves(monkeypatch):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in traced_sites(monkeypatch) if not hasattr(owner, attr)]
    assert not missing


def unread_imports(path: Path) -> list[str]:
    """Names a module imports at module level and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_unread_imports_are_traced_sites(monkeypatch):
    # Such an import (marked ``# noqa: F401``) exists only for the tracer to
    # wrap; once the tracer no longer names it, the import is dead.
    traced = {(getattr(owner, "__name__", None), attr)
              for owner, attr in traced_sites(monkeypatch)}
    unread = [(".".join(path.relative_to(LIBRARY.parent).with_suffix("").parts), name)
              for path in sorted(LIBRARY.rglob("*.py")) if path.name != "__init__.py"
              for name in unread_imports(path)]
    assert set(unread) <= traced, sorted(set(unread) - traced)
