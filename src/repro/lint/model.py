"""The analyzer's view of the source tree: parsed modules and a class index.

The lint rules (:mod:`repro.lint.rules_determinism` and friends) never touch
the filesystem or import the code under analysis -- importing would execute
module-level code and make the *linter* a hidden-state hazard of its own.
Instead they operate on a :class:`ProjectIndex`: every module parsed once
into an :class:`ast` tree (with parent back-links, which several rules need
to ask "what consumes this expression?"), plus a cross-module class index
that resolves base-class names so rules can reason over inheritance chains
(an ``__init__`` path or an export/restore pair may live in a base class
defined in another module).

Inline exemptions use ``# lint: ephemeral`` comments (see
:mod:`repro.lint.rules_snapshot`); the index records the lines carrying them
so rules can honour annotations without re-reading files.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: Inline annotation marking an ``__init__``-assigned attribute as ephemeral
#: (recomputed, observational, or rebuilt from configuration), i.e. outside
#: the snapshot-completeness contract.  Free text after the marker documents
#: the why; the analyzer only requires the marker itself.
EPHEMERAL_MARKER = re.compile(r"#\s*lint:\s*ephemeral\b")


@dataclass(frozen=True)
class Finding:
    """One contract violation, pinned to a file, line and symbol.

    ``symbol`` is the stable identity suppressions match against (e.g.
    ``"PageCache.capacity_pages"`` or ``"VirtualClock"``); ``hint`` tells
    the reader how to fix or exempt the finding.
    """

    rule: str
    path: str
    line: int
    symbol: str
    message: str
    hint: str = ""

    def location(self) -> str:
        """``file:line`` reference for tables and editors."""
        return f"{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (stable key order)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "hint": self.hint,
        }


def _link_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.lint_parent = node  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    """The syntactic parent of ``node`` (set at parse time), or ``None``."""
    return getattr(node, "lint_parent", None)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    rel: str  # project-relative posix path, the form findings report
    tree: ast.Module
    ephemeral_lines: frozenset

    def is_ephemeral(self, lineno: int) -> bool:
        """True when ``lineno`` (or the line above it) carries the
        ``# lint: ephemeral`` annotation."""
        return lineno in self.ephemeral_lines or (lineno - 1) in self.ephemeral_lines


@dataclass
class ClassInfo:
    """One class definition plus the context rules need around it."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    base_names: Tuple[str, ...]
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)


def _dotted_tail(node: ast.AST) -> str:
    """Last path component of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _dotted_tail(node.func)
    return ""


class ProjectIndex:
    """Every module under one root, parsed, plus a name -> class index."""

    def __init__(self, root: Path, project_root: Optional[Path] = None) -> None:
        self.root = Path(root)
        self.project_root = Path(project_root) if project_root is not None else self.root
        self.modules: List[ModuleInfo] = []
        self.errors: List[Finding] = []
        self._classes: Dict[str, List[ClassInfo]] = {}
        self._load()

    # ------------------------------------------------------------- loading
    def _load(self) -> None:
        for path in sorted(self.root.rglob("*.py")):
            rel = path.relative_to(self.project_root).as_posix()
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError) as error:
                self.errors.append(
                    Finding(
                        rule="LINT000",
                        path=rel,
                        line=getattr(error, "lineno", 1) or 1,
                        symbol=path.stem,
                        message=f"cannot parse module: {error}",
                        hint="fix the syntax error; the analyzer needs a valid AST",
                    )
                )
                continue
            _link_parents(tree)
            ephemeral = frozenset(
                number
                for number, text in enumerate(source.splitlines(), start=1)
                if EPHEMERAL_MARKER.search(text)
            )
            module = ModuleInfo(path=path, rel=rel, tree=tree, ephemeral_lines=ephemeral)
            self.modules.append(module)
            self._index_classes(module)

    def _index_classes(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = ClassInfo(
                name=node.name,
                module=module,
                node=node,
                base_names=tuple(
                    name for name in (_dotted_tail(base) for base in node.bases) if name
                ),
            )
            for statement in node.body:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods[statement.name] = statement  # type: ignore[assignment]
            self._classes.setdefault(node.name, []).append(info)

    # ------------------------------------------------------------- queries
    def iter_classes(self) -> Iterator[ClassInfo]:
        for name in sorted(self._classes):
            yield from self._classes[name]

    def find_classes(self, name: str) -> List[ClassInfo]:
        return list(self._classes.get(name, []))

    def find_class(self, name: str, near: Optional[ModuleInfo] = None) -> Optional[ClassInfo]:
        """The class called ``name``: same-module definitions win, then a
        unique project-wide definition; ambiguity resolves to ``None``."""
        candidates = self._classes.get(name, [])
        if near is not None:
            local = [info for info in candidates if info.module is near]
            if len(local) == 1:
                return local[0]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def mro(self, info: ClassInfo) -> List[ClassInfo]:
        """``info`` plus every statically-resolvable ancestor, nearest first.

        Plain depth-first resolution (no C3): the analyzed tree uses single
        inheritance plus mixins, where DFS and C3 agree on membership, which
        is all the rules ask ("does any ancestor define X?").
        """
        seen: List[ClassInfo] = []
        stack = [info]
        while stack:
            current = stack.pop(0)
            if any(existing is current for existing in seen):
                continue
            seen.append(current)
            for base_name in current.base_names:
                base = self.find_class(base_name, near=current.module)
                if base is not None:
                    stack.append(base)
        return seen

    def mro_defines_method(self, info: ClassInfo, method: str) -> Optional[ClassInfo]:
        for ancestor in self.mro(info):
            if method in ancestor.methods:
                return ancestor
        return None
