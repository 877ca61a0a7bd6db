"""Every public top-level name under ``src/repro`` is used by something.

A function or class counts as used when its name appears in ``src/``,
``bench/``, ``benchmarks/``, ``examples/`` or ``docs/``.  Three kinds of
mention do not count: the package surfaces (``__init__.py`` re-exports),
``tests/``, and the defining module itself, except from module-level
code or from a definition that is itself used.  So a helper that only
its own dead sibling calls is dead too.

The allowlist names the exceptions, each with its reason.  An entry that
becomes used, or whose name is gone, fails the test, so the list cannot
go stale.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "bench", "benchmarks", "examples", "docs")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

ALLOWED: Dict[str, str] = {
    "repro.protocols.batch.run_batch":
        "the instant batched driver the burst tests run against",
    "repro.workload.replay.replay_ops":
        "drives the operation-transfer integration tests",
}


def _is_surface(path: Path) -> bool:
    return path.name == "__init__.py" and PACKAGE in path.parents


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _outside_mentions() -> Dict[str, Set[Path]]:
    """identifier -> the searched files (surfaces excluded) that mention it."""
    mentions: Dict[str, Set[Path]] = defaultdict(set)
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*"):
            if path.suffix not in (".py", ".md") or _is_surface(path):
                continue
            for word in set(IDENTIFIER.findall(path.read_text("utf-8"))):
                mentions[word].add(path)
    return mentions


def _module_parts(path: Path) -> Tuple[Dict[str, Set[str]], Set[str]]:
    """(top-level definition -> identifiers in its body, identifiers in
    the module-level code outside definitions and imports)."""
    definitions: Dict[str, Set[str]] = {}
    loose: Set[str] = set()
    source = path.read_text("utf-8")
    lines = source.splitlines()
    for node in ast.parse(source).body:
        start = min([node.lineno] + [decorator.lineno for decorator
                                     in getattr(node, "decorator_list", ())])
        text = "\n".join(lines[start - 1:node.end_lineno])
        words = set(IDENTIFIER.findall(text))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            definitions[node.name] = words - {node.name}
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            loose |= words
    return definitions, loose


def unreached_names() -> List[str]:
    """Dotted names of the public top-level definitions nothing uses."""
    mentions = _outside_mentions()
    unreached = []
    for path in sorted(PACKAGE.rglob("*.py")):
        definitions, loose = _module_parts(path)
        used = {name for name in definitions
                if mentions.get(name, set()) - {path} or name in loose}
        frontier = list(used)
        while frontier:
            for name in definitions[frontier.pop()] & set(definitions):
                if name not in used:
                    used.add(name)
                    frontier.append(name)
        module = _module_name(path)
        unreached += [f"{module}.{name}" for name in definitions
                      if not name.startswith("_") and name not in used]
    return unreached


def test_every_public_name_is_reached():
    unreached = set(unreached_names())
    assert sorted(unreached - set(ALLOWED)) == [], (
        "delete these, or allowlist them with a reason")
    assert sorted(set(ALLOWED) - unreached) == [], (
        "these allowlist entries are used now, or gone: drop them")
