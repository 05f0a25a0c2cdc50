"""Every ``repro.*`` cross-reference in a source docstring resolves."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ROLE = re.compile(r":(?:class|func|meth|mod|attr|exc):`~?(repro\.[\w.]+)`")


def _targets():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        found.update(ROLE.findall(path.read_text(encoding="utf-8")))
    return sorted(found)


def _resolve(target: str) -> object:
    """Import the longest module prefix of ``target``, then getattr the rest."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(target)


def test_docstring_references_resolve():
    targets = _targets()
    assert len(targets) > 50
    unresolved = []
    for target in targets:
        try:
            _resolve(target)
        except (ImportError, AttributeError):
            unresolved.append(target)
    assert unresolved == []
