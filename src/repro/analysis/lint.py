"""``repro-lint``: AST rules for the repo's own determinism invariants.

The simulators promise byte-identical traces for identical inputs; that
promise is easy to break with one careless call.  These rules ban the
three classic leaks in deterministic code:

``L001`` — wall-clock time (``time.time``/``monotonic``/``perf_counter``,
    ``datetime.now``...): simulated time must come from the event loop.
``L002`` — unseeded randomness (module-level ``random.*`` calls,
    ``random.Random()`` / ``numpy.random.default_rng()`` with no seed,
    module-level ``numpy.random.*`` draws).
``L003`` — iterating a ``set``/``frozenset`` in a ``for`` loop or a
    list/dict/generator comprehension: CPython set order depends on hash
    values and insertion history, so any order-dependent effect in the
    body (scheduling, emission, accumulation into a list) becomes
    machine-dependent.  Wrap the set in ``sorted(...)`` instead.
``L004`` — raw ``itemsize`` byte math (``n * dtype.itemsize``) outside
    the sizeof helpers.  Every byte count the memory analyzer reasons
    about must flow through :func:`repro.core.tensor.nbytes_of` /
    :func:`repro.core.tensor.region_nbytes` (and the attribution in
    :mod:`repro.core.buffers`), or static bounds and runtime accounting
    can silently disagree.  Only those modules may multiply by
    ``itemsize`` directly.

A line (or the line above it) may carry an explicit waiver with a
reason, e.g.::

    t0 = time.perf_counter()  # repro-lint: allow[L001] instrumentation

Waivers are for code whose *output* provably does not depend on the
value (pass-timing telemetry, progress printing, wall-clock safety caps
documented as such) — never for anything that shapes a plan or a trace.

Run over a tree with :func:`lint_paths` or ``python -m repro lint src/``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .diagnostics import AnalysisReport, Diagnostic, Severity

__all__ = ["lint_source", "lint_file", "lint_paths", "iter_python_files"]

_ALLOW_RE = re.compile(r"repro-lint:\s*allow\[([A-Z0-9,\s]+)\]")

#: every rule's code, the only values ``codes`` may select
_CODES = ("L001", "L002", "L003", "L004")

#: wall-clock call targets (resolved through import aliases)
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``random`` module attributes that are fine to call
_RANDOM_OK = frozenset({"Random", "SystemRandom", "seed", "getstate", "setstate"})

#: ``numpy.random`` constructors that are fine *when seeded*
_NP_RANDOM_CTORS = frozenset({"default_rng", "RandomState", "Generator", "SeedSequence"})

_SET_BUILTINS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: modules allowed to do raw ``* itemsize`` math (the sizeof helpers
#: themselves and the buffer-attribution map built on them)
_L004_ALLOWED_SUFFIXES = ("core/tensor.py", "core/buffers.py")


class _Scope:
    """One lexical scope's set-typed name approximation."""

    def __init__(self) -> None:
        self.set_names: set[str] = set()
        self.other_names: set[str] = set()

    def mark(self, name: str, is_set: bool) -> None:
        if is_set:
            self.set_names.add(name)
            self.other_names.discard(name)
        else:
            self.other_names.add(name)
            self.set_names.discard(name)


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Diagnostic] = []
        #: alias -> module dotted path (``import numpy as np``)
        self.module_alias: dict[str, str] = {}
        #: name -> full dotted path (``from time import monotonic``)
        self.from_alias: dict[str, str] = {}
        self.scopes: list[_Scope] = [_Scope()]

    # ------------------------------------------------------------------
    def _emit(self, code: str, message: str, node: ast.AST) -> None:
        self.findings.append(
            Diagnostic(
                code=code,
                severity=Severity.ERROR,
                message=message,
                file=self.path,
                line=getattr(node, "lineno", None),
            )
        )

    # ------------------------------------------------------------------
    # Imports
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.module_alias[alias.asname or alias.name.split(".")[0]] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            base = node.module
            if base == "datetime":
                # ``from datetime import datetime`` -> datetime.datetime
                for alias in node.names:
                    self.from_alias[alias.asname or alias.name] = (
                        f"datetime.{alias.name}"
                    )
            else:
                for alias in node.names:
                    self.from_alias[alias.asname or alias.name] = (
                        f"{base}.{alias.name}"
                    )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def _dotted(self, node: ast.expr) -> Optional[str]:
        """Resolve ``np.random.rand`` -> ``numpy.random.rand`` via imports."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.module_alias:
            base = self.module_alias[root]
        elif root in self.from_alias:
            base = self.from_alias[root]
        else:
            return None
        return ".".join([base] + parts[::-1])

    # ------------------------------------------------------------------
    # L001 / L002: calls
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is not None:
            if dotted in _WALL_CLOCK:
                self._emit(
                    "L001",
                    f"wall-clock call {dotted}(); deterministic code must "
                    "take time from the event loop",
                    node,
                )
            else:
                self._check_random(dotted, node)
        self.generic_visit(node)

    def _check_random(self, dotted: str, node: ast.Call) -> None:
        if dotted.startswith("random."):
            fn = dotted.split(".", 1)[1]
            if "." in fn:
                return
            if fn == "Random":
                if not node.args and not node.keywords:
                    self._emit(
                        "L002", "random.Random() without a seed", node
                    )
            elif fn not in _RANDOM_OK:
                self._emit(
                    "L002",
                    f"module-level {dotted}() draws from the global "
                    "(unseeded) RNG; use a seeded random.Random instance",
                    node,
                )
        elif dotted.startswith("numpy.random."):
            fn = dotted.split(".", 2)[2]
            if "." in fn:
                return
            if fn in _NP_RANDOM_CTORS:
                if not node.args and not node.keywords:
                    self._emit(
                        "L002", f"numpy.random.{fn}() without a seed", node
                    )
            else:
                self._emit(
                    "L002",
                    f"module-level numpy.random.{fn}() draws from the global "
                    "RNG; use a seeded numpy.random.default_rng(seed)",
                    node,
                )

    # ------------------------------------------------------------------
    # L003: set iteration
    # ------------------------------------------------------------------
    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_BUILTINS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self._is_set_expr(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            for scope in reversed(self.scopes):
                if node.id in scope.set_names:
                    return True
                if node.id in scope.other_names:
                    return False
        return False

    def _track_assign(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.scopes[-1].mark(target.id, self._is_set_expr(value))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._track_assign(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._track_assign(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``hosts |= {...}`` keeps (or makes) the name a set
        if isinstance(node.target, ast.Name) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            if self._is_set_expr(node.value):
                self.scopes[-1].mark(node.target.id, True)
        self.generic_visit(node)

    def _check_iteration(self, iter_node: ast.expr, where: ast.AST) -> None:
        if self._is_set_expr(iter_node):
            self._emit(
                "L003",
                "iteration over an unordered set; wrap it in sorted(...) so "
                "order-dependent effects stay deterministic",
                where,
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # L004: raw itemsize byte math
    # ------------------------------------------------------------------
    def _is_itemsize(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "itemsize":
            return True
        return isinstance(node, ast.Name) and node.id == "itemsize"

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (
            isinstance(node.op, ast.Mult)
            and (self._is_itemsize(node.left) or self._is_itemsize(node.right))
            and not self.path.replace("\\", "/").endswith(_L004_ALLOWED_SUFFIXES)
        ):
            self._emit(
                "L004",
                "raw itemsize byte math; use repro.core.tensor.nbytes_of / "
                "region_nbytes so the memory analyzer and runtime "
                "accounting agree on every byte count",
                node,
            )
        self.generic_visit(node)

    def _visit_comprehension(
        self, node: Union[ast.ListComp, ast.GeneratorExp, ast.DictComp]
    ) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    # set comprehensions rebuild a set: order cannot leak

    # ------------------------------------------------------------------
    # Scopes
    # ------------------------------------------------------------------
    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
    ) -> None:
        self.scopes.append(_Scope())
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function


def _waived(diag: Diagnostic, lines: Sequence[str]) -> bool:
    if diag.line is None:
        return False
    for lineno in (diag.line, diag.line - 1):
        if 1 <= lineno <= len(lines):
            m = _ALLOW_RE.search(lines[lineno - 1])
            if m and diag.code in {c.strip() for c in m.group(1).split(",")}:
                return True
    return False


def lint_source(
    source: str, path: str = "<string>", codes: Optional[Iterable[str]] = None
) -> list[Diagnostic]:
    """Lint one module's source; returns unwaived findings in line order.

    ``codes`` selects rules by code.  An unknown code raises
    ``ValueError``: it would select no rule and pass as clean without
    checking anything.
    """
    wanted = set(codes) if codes is not None else None
    if wanted is not None and not wanted <= set(_CODES):
        unknown = ", ".join(sorted(map(repr, wanted - set(_CODES))))
        raise ValueError(f"codes: unknown lint code {unknown}; known: {', '.join(_CODES)}")
    tree = ast.parse(source, filename=path)
    linter = _Linter(path)
    linter.visit(tree)
    lines = source.splitlines()
    out = [
        d
        for d in linter.findings
        if not _waived(d, lines) and (wanted is None or d.code in wanted)
    ]
    out.sort(key=lambda d: (d.line or 0, d.code, d.message))
    return out


def lint_file(
    path: Union[str, Path], codes: Optional[Iterable[str]] = None
) -> list[Diagnostic]:
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p), codes=codes)


def iter_python_files(paths: Sequence[Union[str, Path]]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated .py file list."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.update(
                f for f in p.rglob("*.py") if "__pycache__" not in f.parts
            )
        elif p.suffix == ".py":
            out.add(p)
    return sorted(out)


def lint_paths(
    paths: Sequence[Union[str, Path]], codes: Optional[Iterable[str]] = None
) -> AnalysisReport:
    """Lint every ``.py`` file under ``paths``; one combined report.

    Raises ``ValueError`` when ``paths`` name no ``.py`` file: a
    misspelled path must not pass as clean without checking anything.
    """
    files = iter_python_files(paths)
    if not files:
        raise ValueError(
            f"no .py file under {' '.join(map(str, paths))}; nothing to lint"
        )
    report = AnalysisReport(subject="repro-lint")
    for f in files:
        report.diagnostics.extend(lint_file(f, codes=codes))
    return report
