"""R011 — raw ``SharedMemory`` blocks need an owner and a finally.

A ``multiprocessing.shared_memory.SharedMemory`` block is an OS-level
resource: ``close()`` releases the mapping, and — for the process that
passed ``create=True`` — ``unlink()`` destroys the backing segment.
Miss either on an error path and the block outlives the process (the
resource tracker's "leaked shared_memory" warning in the best case, a
full ``/dev/shm`` in the worst).

The supported way to publish arrays is
:class:`repro.experiments.shm.SharedArrayPlane`, which dedups blocks by
content and guarantees cleanup via its context manager plus an atexit sweep.
That module is therefore exempt here — it *is* the owner this rule
demands.  Anywhere else, a direct ``SharedMemory(...)`` call must be

* bound to a plain name (an unbound block cannot be cleaned up at all),
* ``close()``\\ d on that name inside a ``finally`` block of the same
  function, and
* ``unlink()``\\ ed likewise whenever the call creates the block
  (``create=True``, a truthy positional, or a value the rule cannot
  prove false — ownership is decided conservatively).

Tests are skipped: lifecycle tests legitimately create blocks to watch
them leak.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ProjectContext
from repro.analysis.finding import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.rules._imports import ImportMap
from repro.analysis.source import SourceFile

__all__ = ["ShmLifecycle"]

_TARGET = "multiprocessing.shared_memory.SharedMemory"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope``'s own statements, not nested function bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _creates_block(call: ast.Call) -> bool:
    """Does this ``SharedMemory(...)`` call own (create) the block?

    ``create`` is the second positional parameter.  Anything the rule
    cannot prove to be ``False`` counts as creating — a dynamic flag
    must be cleaned up as if it were the owner.
    """
    for keyword in call.keywords:
        if keyword.arg == "create":
            value = keyword.value
            return not (
                isinstance(value, ast.Constant) and value.value is False
            )
    if len(call.args) >= 2:
        value = call.args[1]
        return not (isinstance(value, ast.Constant) and value.value is False)
    return False


@register
class ShmLifecycle(Rule):
    code = "R011"
    name = "shm-lifecycle"
    rationale = (
        "a raw SharedMemory block is an OS resource that outlives the "
        "process when an error path skips close()/unlink(); blocks must "
        "be owned by SharedArrayPlane or bound and released in a finally"
    )

    def check(
        self, source: SourceFile, context: ProjectContext
    ) -> Iterator[Finding]:
        if source.is_test_file:
            return
        if source.filename == "shm.py" and source.in_package("experiments"):
            # The plane module is the sanctioned owner.
            return
        imports = ImportMap(source.tree)
        scopes = [source.tree] + [
            node
            for node in ast.walk(source.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            yield from self._check_scope(source, imports, scope)

    # ------------------------------------------------------------------
    def _check_scope(
        self, source: SourceFile, imports: ImportMap, scope: ast.AST
    ) -> Iterator[Finding]:
        calls: list[ast.Call] = []
        bound_to: dict[int, str] = {}
        released: set[tuple[str, str]] = set()
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Call):
                if imports.resolve(node.func) == _TARGET:
                    calls.append(node)
            elif isinstance(node, ast.Assign):
                if len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Name
                ):
                    bound_to[id(node.value)] = node.targets[0].id
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None and isinstance(
                    node.target, ast.Name
                ):
                    bound_to[id(node.value)] = node.target.id
            elif isinstance(node, ast.Try):
                for statement in node.finalbody:
                    for sub in ast.walk(statement):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and isinstance(sub.func.value, ast.Name)
                            and sub.func.attr in ("close", "unlink")
                        ):
                            released.add((sub.func.value.id, sub.func.attr))
        for call in calls:
            name = bound_to.get(id(call))
            if name is None:
                yield self.finding(
                    source,
                    call.lineno,
                    call.col_offset,
                    "SharedMemory block is not bound to a name, so no "
                    "error path can close or unlink it; publish through "
                    "SharedArrayPlane or bind it and release in a finally",
                )
                continue
            if (name, "close") not in released:
                yield self.finding(
                    source,
                    call.lineno,
                    call.col_offset,
                    f"SharedMemory block '{name}' is never close()d in a "
                    "finally block of this function; an error path leaks "
                    "the mapping — use SharedArrayPlane or try/finally",
                )
            if _creates_block(call) and (name, "unlink") not in released:
                yield self.finding(
                    source,
                    call.lineno,
                    call.col_offset,
                    f"created SharedMemory block '{name}' is never "
                    "unlink()ed in a finally block of this function; the "
                    "OS-level segment outlives the process — use "
                    "SharedArrayPlane or try/finally",
                )
