"""Every module under ``src/repro`` is reached from a real entry point.

The roots are the package, its CLI, and every ``repro.*`` import in
``bench/``, ``benchmarks/`` and ``examples/``; from there the imports
inside ``src/repro`` are followed (function-level imports included).  A
module nothing reaches is dead weight that only its own tests keep alive:
delete it, or give it a caller.  Parsed with :mod:`ast`, nothing imported.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, Set

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules kept although no entry point imports them, each for a reason.
ALLOWED_UNREACHED = {
    # The asyncio reference runtime: test_cross_runtime and
    # test_adapter_skeleton compare the other runtimes against it.
    "repro.aio",
    # Enumerates every timestamp policy to parametrize
    # test_policy_conformance.
    "repro.core.policy_registry",
}


def _modules() -> Dict[str, Path]:
    out: Dict[str, Path] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


def _imports(path: Path, module: str) -> Iterator[str]:
    """Dotted names ``path`` imports; a ``from`` import also yields
    ``package.name`` for each name, which may be a submodule."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "import_module"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            yield str(node.args[0].value)


def _roots() -> Set[str]:
    roots = {"repro", "repro.cli", "repro.__main__"}
    for folder in ("bench", "benchmarks", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            roots.update(n for n in _imports(path, folder) if n.startswith("repro"))
    return roots


def _reached(modules: Dict[str, Path], extra: Iterable[str] = ()) -> Set[str]:
    seen: Set[str] = set()
    todo = [*_roots(), *extra]
    while todo:
        name = todo.pop()
        # Importing ``a.b.c`` runs ``a`` and ``a.b`` first.
        parts = name.split(".")
        for k in range(1, len(parts) + 1):
            prefix = ".".join(parts[:k])
            if prefix in modules and prefix not in seen:
                seen.add(prefix)
                todo.extend(_imports(modules[prefix], prefix))
    return seen


def test_every_module_is_reached():
    modules = _modules()
    assert len(modules) > 80
    # What an allowlisted module imports counts as reached through it.
    assert sorted(set(modules) - _reached(modules, ALLOWED_UNREACHED)) == []


def test_allowlist_names_only_unreached_modules():
    modules = _modules()
    assert ALLOWED_UNREACHED <= set(modules) - _reached(modules)
