"""Project-wide dataflow facts: symbols, function summaries, call graph.

PR 2's rules were per-file pattern matchers; the invariants the process
pool leans on (pool purity, RNG provenance, kernel aliasing,
typed-error flow, telemetry vocabulary) are properties of *paths through
the call graph*, not of single files.  This module is the engine that
makes those checkable:

* :func:`module_name_for` — a stable dotted module name for every file
  in a lint run (``src/repro/core/nash.py`` -> ``repro.core.nash``), so
  imports written in source resolve to files in the same run.
* :func:`collect_facts` — one :class:`ModuleFacts` per parsed file:
  the import table (absolute, relative imports resolved), top-level
  defs, enum vocabularies, module-level generator globals, declared
  telemetry events, and a :class:`FunctionSummary` for every function,
  method, nested def and lambda.
* :class:`ProjectModel` — the cross-module layer: an index of all
  facts, name resolution from any call expression back to the defining
  summary, and a fixed-point propagation pass that composes summaries
  across calls (a function that calls a global-writing helper *is* a
  global-writing function; a kernel that hands a parameter to an
  in-place helper *does* mutate that parameter).

Everything here is purely syntactic and flow-insensitive (assignments
are tracked in source order within a function, which is the usual lint
approximation); the propagation is a monotone set union, so the fixed
point exists and the worklist terminates.

Facts serialize to JSON (:meth:`ModuleFacts.to_json`) so the
incremental cache (:mod:`repro.analysis.cache`) can rebuild the model
for unchanged files without re-parsing them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.analysis.source import SourceFile

__all__ = [
    "AUDITED_STATE_MODULES",
    "CallSite",
    "FunctionSummary",
    "GlobalWrite",
    "ModuleFacts",
    "MutationSite",
    "ProjectModel",
    "RngUse",
    "Transitive",
    "collect_facts",
    "module_name_for",
]

#: Modules whose module-level state management is audited infrastructure:
#: the process-pool layer's executor cache and the ambient tracer stack
#: are deliberately process-local (workers keep their own copies and the
#: coordinator never reads results out of them), so their global writes
#: are not pool-purity hazards.  R006 skips writes defined in these
#: modules the same way R001 skips the audited seed helper.
AUDITED_STATE_MODULES = frozenset(
    {
        "repro.experiments.parallel",
        "repro.experiments.shm",
        "repro.telemetry.trace",
    }
)

#: Calls that construct a ``numpy.random`` generator (seededness is
#: R001's concern; R007 only tracks *provenance*).
_GENERATOR_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.SFC64",
        "numpy.random.MT19937",
    }
)

#: ``Generator`` methods that consume random state.
_STOCHASTIC_METHODS = frozenset(
    {
        "random",
        "normal",
        "uniform",
        "integers",
        "choice",
        "shuffle",
        "permutation",
        "permuted",
        "exponential",
        "poisson",
        "standard_normal",
        "standard_exponential",
        "standard_gamma",
        "binomial",
        "gamma",
        "beta",
        "lognormal",
        "geometric",
        "laplace",
        "logistic",
        "gumbel",
        "pareto",
        "rayleigh",
        "triangular",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
        "dirichlet",
        "multinomial",
        "multivariate_normal",
        "negative_binomial",
        "hypergeometric",
        "bytes",
    }
)

#: numpy calls whose result may alias their first argument (views or
#: conditional no-copy conversions).
_ALIASING_NP_CALLS = frozenset(
    {
        "numpy.asarray",
        "numpy.asanyarray",
        "numpy.ascontiguousarray",
        "numpy.asfortranarray",
        "numpy.atleast_1d",
        "numpy.atleast_2d",
        "numpy.atleast_3d",
        "numpy.ravel",
        "numpy.reshape",
        "numpy.transpose",
        "numpy.squeeze",
        "numpy.broadcast_to",
        "numpy.swapaxes",
        "numpy.moveaxis",
    }
)

#: Array methods returning views of the receiver.
_ALIASING_METHODS = frozenset(
    {"reshape", "ravel", "view", "squeeze", "transpose", "swapaxes"}
)

#: Array attributes that alias the underlying buffer.
_ALIASING_ATTRS = frozenset({"T", "real", "imag", "flat"})

#: Array methods that mutate the receiver in place.
_MUTATOR_METHODS = frozenset(
    {"fill", "sort", "partition", "put", "resize", "setflags", "byteswap"}
)

#: numpy functions that mutate their first argument.
_NP_FIRSTARG_MUTATORS = frozenset(
    {
        "numpy.copyto",
        "numpy.put",
        "numpy.place",
        "numpy.putmask",
        "numpy.put_along_axis",
        "numpy.fill_diagonal",
    }
)

#: Container methods that mutate the receiver (module-global hazard).
_CONTAINER_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "appendleft",
        "extendleft",
    }
)


def module_name_for(path_parts: tuple[str, ...]) -> str:
    """Dotted module name of a file path within a lint run.

    Strips everything up to (and including) the last ``src`` component,
    drops the ``.py`` suffix and a trailing ``__init__``, so the
    installed package, the ``src`` tree and synthetic fixture paths all
    produce the same import-resolvable names.
    """
    parts = list(path_parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part) or "__main__"


def _dotted_parts(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` expression -> ``("a", "b", "c")``; ``None`` otherwise."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        base = _dotted_parts(node.value)
        if base is not None:
            return base + (node.attr,)
    return None


@dataclass(frozen=True)
class GlobalWrite:
    """One write (or in-place mutation) of a module-level name."""

    name: str
    lineno: int
    col: int

    def to_json(self) -> list[Any]:
        return [self.name, self.lineno, self.col]


@dataclass(frozen=True)
class RngUse:
    """One stochastic draw from an ambient (module-level) generator."""

    generator: str
    lineno: int
    col: int

    def to_json(self) -> list[Any]:
        return [self.generator, self.lineno, self.col]


@dataclass(frozen=True)
class MutationSite:
    """One in-place mutation of a function parameter."""

    param: str
    lineno: int
    col: int
    reason: str

    def to_json(self) -> list[Any]:
        return [self.param, self.lineno, self.col, self.reason]


@dataclass(frozen=True)
class CallSite:
    """One call with enough static context to compose summaries.

    ``target`` is the raw dotted path of the callee expression
    (resolution happens in the model, where the import tables live);
    ``param_args`` records which *caller parameters* flow into which
    callee argument slots — ``(position | keyword, caller_param)``
    pairs — so parameter-mutation summaries compose across the call.
    ``arg_offset`` is 1 for ``self.method(...)`` calls (the bound
    receiver occupies the callee's first slot).
    """

    target: tuple[str, ...]
    lineno: int
    col: int
    param_args: tuple[tuple[int | str, str], ...] = ()
    arg_offset: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "target": list(self.target),
            "lineno": self.lineno,
            "col": self.col,
            "param_args": [list(pair) for pair in self.param_args],
            "arg_offset": self.arg_offset,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "CallSite":
        return cls(
            target=tuple(data["target"]),
            lineno=int(data["lineno"]),
            col=int(data["col"]),
            param_args=tuple(
                (pos if isinstance(pos, str) else int(pos), str(name))
                for pos, name in data.get("param_args", ())
            ),
            arg_offset=int(data.get("arg_offset", 0)),
        )


@dataclass(frozen=True)
class FunctionSummary:
    """Per-function facts, composable across calls by the model.

    ``kind`` is ``"function"`` (module-level def), ``"method"`` (def
    directly inside a module-level class), ``"nested"`` (def inside
    another function — unpicklable, hence pool-hostile) or
    ``"lambda"``.
    """

    module: str
    qualname: str
    name: str
    lineno: int
    end_lineno: int
    col: int
    kind: str
    params: tuple[str, ...]
    kwonly: tuple[str, ...]
    global_writes: tuple[GlobalWrite, ...]
    ambient_rng: tuple[RngUse, ...]
    raises: frozenset[str]
    calls: tuple[CallSite, ...]
    mutations: tuple[MutationSite, ...]
    local_defs: Mapping[str, str] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.module}::{self.qualname}"

    def to_json(self) -> dict[str, Any]:
        return {
            "module": self.module,
            "qualname": self.qualname,
            "name": self.name,
            "lineno": self.lineno,
            "end_lineno": self.end_lineno,
            "col": self.col,
            "kind": self.kind,
            "params": list(self.params),
            "kwonly": list(self.kwonly),
            "global_writes": [w.to_json() for w in self.global_writes],
            "ambient_rng": [u.to_json() for u in self.ambient_rng],
            "raises": sorted(self.raises),
            "calls": [c.to_json() for c in self.calls],
            "mutations": [m.to_json() for m in self.mutations],
            "local_defs": dict(self.local_defs),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FunctionSummary":
        return cls(
            module=str(data["module"]),
            qualname=str(data["qualname"]),
            name=str(data["name"]),
            lineno=int(data["lineno"]),
            end_lineno=int(data.get("end_lineno", data["lineno"])),
            col=int(data["col"]),
            kind=str(data["kind"]),
            params=tuple(data["params"]),
            kwonly=tuple(data["kwonly"]),
            global_writes=tuple(
                GlobalWrite(str(n), int(l), int(c))
                for n, l, c in data["global_writes"]
            ),
            ambient_rng=tuple(
                RngUse(str(g), int(l), int(c))
                for g, l, c in data["ambient_rng"]
            ),
            raises=frozenset(data["raises"]),
            calls=tuple(CallSite.from_json(c) for c in data["calls"]),
            mutations=tuple(
                MutationSite(str(p), int(l), int(c), str(r))
                for p, l, c, r in data["mutations"]
            ),
            local_defs=dict(data.get("local_defs", {})),
        )


@dataclass(frozen=True)
class ModuleFacts:
    """Everything the cross-file layer knows about one parsed file."""

    module: str
    path: str
    imports: Mapping[str, str]
    defs: Mapping[str, str]
    module_globals: frozenset[str]
    ambient_generators: frozenset[str]
    declared_events: Mapping[str, str] | None
    enums: Mapping[str, tuple[str, ...]]
    dep_modules: frozenset[str]
    summaries: tuple[FunctionSummary, ...]

    @property
    def is_vocabulary(self) -> bool:
        """Does this file define project-wide vocabulary (enums/events)?

        Vocabulary files are universal dependencies for the incremental
        cache: a change to them can alter findings in any file.
        """
        return bool(self.enums) or self.declared_events is not None

    def to_json(self) -> dict[str, Any]:
        return {
            "module": self.module,
            "path": self.path,
            "imports": dict(self.imports),
            "defs": dict(self.defs),
            "module_globals": sorted(self.module_globals),
            "ambient_generators": sorted(self.ambient_generators),
            "declared_events": (
                None
                if self.declared_events is None
                else dict(self.declared_events)
            ),
            "enums": {name: list(members) for name, members in self.enums.items()},
            "dep_modules": sorted(self.dep_modules),
            "summaries": [s.to_json() for s in self.summaries],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ModuleFacts":
        declared = data.get("declared_events")
        return cls(
            module=str(data["module"]),
            path=str(data["path"]),
            imports=dict(data["imports"]),
            defs=dict(data["defs"]),
            module_globals=frozenset(data["module_globals"]),
            ambient_generators=frozenset(data["ambient_generators"]),
            declared_events=None if declared is None else dict(declared),
            enums={
                name: tuple(members)
                for name, members in data["enums"].items()
            },
            dep_modules=frozenset(data["dep_modules"]),
            summaries=tuple(
                FunctionSummary.from_json(s) for s in data["summaries"]
            ),
        )


# ----------------------------------------------------------------------
# Fact collection
# ----------------------------------------------------------------------


def _import_table(
    tree: ast.Module, module: str
) -> tuple[dict[str, str], set[str]]:
    """Local-name -> absolute dotted target, plus dotted dep modules.

    Relative imports are resolved against ``module``'s package so that
    ``from .parallel import parallel_map`` inside
    ``repro.experiments.common`` binds to
    ``repro.experiments.parallel.parallel_map``.
    """
    package = module.rsplit(".", 1)[0] if "." in module else ""
    table: dict[str, str] = {}
    deps: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                deps.add(alias.name)
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    top = alias.name.split(".", 1)[0]
                    table.setdefault(top, top)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package.split(".") if package else []
                up = node.level - 1
                if up:
                    base_parts = base_parts[:-up] if up <= len(base_parts) else []
                base = ".".join(base_parts)
                target = (
                    f"{base}.{node.module}"
                    if base and node.module
                    else (node.module or base)
                )
            else:
                target = node.module or ""
            if not target:
                continue
            deps.add(target)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{target}.{alias.name}"
                # ``from pkg import mod`` may bind a submodule.
                deps.add(f"{target}.{alias.name}")
    return table, deps


def _resolve_external(
    parts: tuple[str, ...], imports: Mapping[str, str]
) -> str | None:
    """Absolute dotted path of an expression via the import table."""
    if not parts:
        return None
    target = imports.get(parts[0])
    if target is None:
        return None
    return ".".join((target, *parts[1:]))


def _is_enum_base(base: ast.expr) -> bool:
    name = base.attr if isinstance(base, ast.Attribute) else None
    if isinstance(base, ast.Name):
        name = base.id
    return name in {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"}


def _enum_member_names(node: ast.ClassDef) -> tuple[str, ...]:
    members: list[str] = []
    for statement in node.body:
        targets: list[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("_"):
                members.append(target.id)
    return tuple(members)


def _declared_events_in(tree: ast.Module) -> dict[str, str] | None:
    """The ``DECLARED_EVENTS`` mapping literal, if this module has one."""
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target in targets:
            if not (isinstance(target, ast.Name) and target.id == "DECLARED_EVENTS"):
                continue
            if isinstance(value, ast.Call) and value.args:
                # e.g. ``MappingProxyType({...})`` — unwrap one level.
                value = value.args[0]
            if not isinstance(value, ast.Dict):
                return {}
            declared: dict[str, str] = {}
            for key, val in zip(value.keys, value.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    view = (
                        val.value
                        if isinstance(val, ast.Constant)
                        and isinstance(val.value, str)
                        else ""
                    )
                    declared[key.value] = view
            return declared
    return None


class _Scope:
    """Mutable per-function state for the ordered body walk."""

    def __init__(self, params: tuple[str, ...], kwonly: tuple[str, ...], kind: str):
        self.locals: set[str] = set(params) | set(kwonly)
        self.global_decls: set[str] = set()
        # name -> root parameter it may alias (params alias themselves,
        # but ``self`` is excluded: methods own their instance state).
        skip_self = {"self", "cls"} if kind == "method" else set()
        self.aliases: dict[str, str] = {
            p: p for p in (*params, *kwonly) if p not in skip_self
        }
        # name -> "derived" (parameter/seeded) | "ambient" rng provenance.
        self.rng: dict[str, str] = {
            p: "derived" for p in (*params, *kwonly)
        }


class _SummaryCollector(ast.NodeVisitor):
    """Ordered walk of one function body (nested defs excluded)."""

    def __init__(
        self,
        imports: Mapping[str, str],
        module_globals: frozenset[str],
        ambient_generators: frozenset[str],
        scope: _Scope,
    ):
        self.imports = imports
        self.module_globals = module_globals
        self.ambient_generators = ambient_generators
        self.scope = scope
        self.global_writes: list[GlobalWrite] = []
        self.ambient_rng: list[RngUse] = []
        self.raises: set[str] = set()
        self.calls: list[CallSite] = []
        self.mutations: list[MutationSite] = []
        self.local_defs: dict[str, str] = {}
        self._qual_prefix = ""

    # -- helpers -------------------------------------------------------

    def _is_module_global(self, name: str) -> bool:
        if name in self.scope.global_decls:
            return True
        return name not in self.scope.locals and name in self.module_globals

    def _alias_root(self, node: ast.expr) -> str | None:
        """Root parameter a value expression may alias, if any."""
        if isinstance(node, ast.Name):
            return self.scope.aliases.get(node.id)
        if isinstance(node, ast.Subscript):
            return self._alias_root(node.value)
        if isinstance(node, ast.Attribute) and node.attr in _ALIASING_ATTRS:
            return self._alias_root(node.value)
        if isinstance(node, ast.Call):
            dotted = _dotted_parts(node.func)
            if dotted is not None:
                resolved = _resolve_external(dotted, self.imports)
                if resolved in _ALIASING_NP_CALLS and node.args:
                    return self._alias_root(node.args[0])
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _ALIASING_METHODS
            ):
                return self._alias_root(node.func.value)
        return None

    def _rng_provenance(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            known = self.scope.rng.get(node.id)
            if known is not None and node.id in self.scope.locals:
                return known
            if node.id in self.ambient_generators and not (
                node.id in self.scope.locals
            ):
                return "ambient"
            return known
        if isinstance(node, ast.Call):
            dotted = _dotted_parts(node.func)
            if dotted is not None:
                resolved = _resolve_external(dotted, self.imports)
                if resolved in _GENERATOR_CONSTRUCTORS:
                    return "derived"
                if resolved is not None and ".rng." in f".{resolved}.":
                    # The audited seed-plumbing helpers.
                    return "derived"
            if isinstance(node.func, ast.Attribute) and node.func.attr in {
                "spawn",
                "generators",
            }:
                return self._rng_provenance(node.func.value)
        return None

    def _record_mutation(self, root: str, node: ast.AST, reason: str) -> None:
        self.mutations.append(
            MutationSite(root, node.lineno, node.col_offset, reason)
        )

    def _record_global_write(self, name: str, node: ast.AST) -> None:
        self.global_writes.append(
            GlobalWrite(name, node.lineno, node.col_offset)
        )

    def _check_store_target(self, target: ast.expr, node: ast.AST) -> None:
        """A store through ``target`` (subscript/attribute chains)."""
        if isinstance(target, ast.Tuple) or isinstance(target, ast.List):
            for element in target.elts:
                self._check_store_target(element, node)
            return
        if isinstance(target, ast.Starred):
            self._check_store_target(target.value, node)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            root_name = target
            while isinstance(root_name, (ast.Subscript, ast.Attribute)):
                root_name = root_name.value  # type: ignore[assignment]
            if isinstance(root_name, ast.Name):
                alias = self._alias_root(target.value if isinstance(target, ast.Subscript) else target)
                if isinstance(target, ast.Subscript):
                    alias = self._alias_root(target.value)
                    if alias is not None:
                        self._record_mutation(alias, node, "subscript store")
                        return
                if self._is_module_global(root_name.id):
                    self._record_global_write(root_name.id, node)

    # -- statements ----------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.scope.global_decls.update(node.names)
        self.scope.locals.difference_update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if self._is_module_global(target.id):
                    self._record_global_write(target.id, node)
                else:
                    self.scope.locals.add(target.id)
                    alias = self._alias_root(node.value)
                    if alias is not None:
                        self.scope.aliases[target.id] = alias
                    else:
                        self.scope.aliases.pop(target.id, None)
                    provenance = self._rng_provenance(node.value)
                    if provenance is not None:
                        self.scope.rng[target.id] = provenance
                    else:
                        self.scope.rng.pop(target.id, None)
            else:
                self._check_store_target(target, node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self.visit_Assign(
                ast.copy_location(
                    ast.Assign(targets=[node.target], value=node.value), node
                )
            )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        target = node.target
        if isinstance(target, ast.Name):
            root = self.scope.aliases.get(target.id)
            if root is not None:
                self._record_mutation(
                    root, node, f"augmented assignment to parameter alias {target.id!r}"
                )
            elif self._is_module_global(target.id):
                self._record_global_write(target.id, node)
        else:
            self._check_store_target(target, node)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        parts = _dotted_parts(exc) if exc is not None else None
        if parts:
            self.raises.add(parts[-1])
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_parts(node.func)
        resolved = (
            _resolve_external(dotted, self.imports) if dotted else None
        )
        # In-place hazards carried by the call itself.
        for keyword in node.keywords:
            if keyword.arg == "out":
                root = self._alias_root(keyword.value)
                if root is not None:
                    self._record_mutation(root, node, "out= argument")
        if resolved in _NP_FIRSTARG_MUTATORS and node.args:
            root = self._alias_root(node.args[0])
            if root is not None:
                self._record_mutation(
                    root, node, f"call to {resolved.rsplit('.', 1)[1]}()"
                )
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            receiver = node.func.value
            if attr in _MUTATOR_METHODS:
                root = self._alias_root(receiver)
                if root is not None:
                    self._record_mutation(
                        root, node, f"mutating method .{attr}()"
                    )
            if attr in _CONTAINER_MUTATORS and isinstance(receiver, ast.Name):
                if self._is_module_global(receiver.id):
                    self._record_global_write(receiver.id, node)
            if attr in _STOCHASTIC_METHODS:
                provenance = self._rng_provenance(receiver)
                if provenance == "ambient":
                    generator = (
                        receiver.id
                        if isinstance(receiver, ast.Name)
                        else ast.unparse(receiver)
                    )
                    self.ambient_rng.append(
                        RngUse(generator, node.lineno, node.col_offset)
                    )
        # Record the call for cross-function composition.
        if dotted is not None:
            param_args: list[tuple[int | str, str]] = []
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Name):
                    root = self.scope.aliases.get(arg.id)
                    if root is not None:
                        param_args.append((index, root))
            for keyword in node.keywords:
                if keyword.arg is not None and isinstance(
                    keyword.value, ast.Name
                ):
                    root = self.scope.aliases.get(keyword.value.id)
                    if root is not None:
                        param_args.append((keyword.arg, root))
            self.calls.append(
                CallSite(
                    target=dotted,
                    lineno=node.lineno,
                    col=node.col_offset,
                    param_args=tuple(param_args),
                    arg_offset=1 if dotted[0] in {"self", "cls"} and len(dotted) > 1 else 0,
                )
            )
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.target, ast.Name):
            self.scope.locals.add(node.target.id)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if isinstance(item.optional_vars, ast.Name):
                self.scope.locals.add(item.optional_vars.id)
        self.generic_visit(node)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        if isinstance(node.target, ast.Name):
            self.scope.locals.add(node.target.id)
        self.generic_visit(node)

    # Nested defs and lambdas are separate summaries; do not descend.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.local_defs[node.name] = f"{self._qual_prefix}{node.name}"

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.local_defs[node.name] = f"{self._qual_prefix}{node.name}"

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return


def _param_names(
    args: ast.arguments,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    positional = tuple(a.arg for a in (*args.posonlyargs, *args.args))
    kwonly = tuple(a.arg for a in args.kwonlyargs)
    return positional, kwonly


def _summarize_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    *,
    module: str,
    qualname: str,
    kind: str,
    imports: Mapping[str, str],
    module_globals: frozenset[str],
    ambient_generators: frozenset[str],
) -> FunctionSummary:
    params, kwonly = _param_names(node.args)
    scope = _Scope(params, kwonly, kind)
    collector = _SummaryCollector(
        imports, module_globals, ambient_generators, scope
    )
    collector._qual_prefix = f"{qualname}.<locals>."
    body = (
        [ast.Expr(value=node.body)]
        if isinstance(node, ast.Lambda)
        else node.body
    )
    # Prepass: simple assignment targets become locals so that reads of
    # a name assigned later in the body are not misread as globals.
    for statement in body:
        for child in ast.walk(statement):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.locals.add(child.name)
            elif isinstance(child, ast.Assign):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        scope.locals.add(target.id)
    for statement in body:
        collector.visit(statement)
    name = (
        "<lambda>" if isinstance(node, ast.Lambda) else node.name
    )
    return FunctionSummary(
        module=module,
        qualname=qualname,
        name=name,
        lineno=node.lineno,
        end_lineno=int(node.end_lineno or node.lineno),
        col=node.col_offset,
        kind=kind,
        params=params,
        kwonly=kwonly,
        global_writes=tuple(collector.global_writes),
        ambient_rng=tuple(collector.ambient_rng),
        raises=frozenset(collector.raises),
        calls=tuple(collector.calls),
        mutations=tuple(collector.mutations),
        local_defs=dict(collector.local_defs),
    )


def _walk_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda, str, str]]:
    """Yield every function node with its qualname and kind."""

    def visit(
        node: ast.AST, prefix: str, in_class: bool, in_function: bool
    ) -> Iterator[tuple[Any, str, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                if in_function:
                    kind = "nested"
                elif in_class:
                    kind = "method"
                else:
                    kind = "function"
                yield child, qualname, kind
                yield from visit(
                    child, f"{qualname}.<locals>.", False, True
                )
            elif isinstance(child, ast.ClassDef):
                if not in_function and not in_class:
                    yield from visit(
                        child, f"{child.name}.", True, False
                    )
                # Nested classes: skip (rare, not pool-relevant).
            elif isinstance(child, ast.Lambda):
                yield child, f"{prefix}<lambda>@{child.lineno}", "lambda"
                # Lambdas cannot contain defs; still walk for nested lambdas.
                yield from visit(child, f"{prefix}", in_class, True)
            else:
                yield from visit(child, prefix, in_class, in_function)

    yield from visit(tree, "", False, False)


def collect_facts(source: SourceFile) -> ModuleFacts:
    """Extract all cross-file facts from one parsed source."""
    module = module_name_for(source.parts)
    tree = source.tree
    imports, deps = _import_table(tree, module)

    defs: dict[str, str] = {}
    module_globals: set[str] = set(imports)
    ambient_generators: set[str] = set()
    enums: dict[str, tuple[str, ...]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = "function"
            module_globals.add(node.name)
        elif isinstance(node, ast.ClassDef):
            defs[node.name] = "class"
            module_globals.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            value = node.value
            for target in targets:
                if isinstance(target, ast.Name):
                    module_globals.add(target.id)
                    if isinstance(value, ast.Lambda):
                        defs[target.id] = "lambda"
                    if isinstance(value, ast.Call):
                        dotted = _dotted_parts(value.func)
                        resolved = (
                            _resolve_external(dotted, imports)
                            if dotted
                            else None
                        )
                        if resolved in _GENERATOR_CONSTRUCTORS:
                            ambient_generators.add(target.id)
                elif isinstance(target, ast.Tuple):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            module_globals.add(element.id)
    # Enums anywhere in the file (nesting is legal if unusual).
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            _is_enum_base(base) for base in node.bases
        ):
            enums[node.name] = _enum_member_names(node)

    frozen_globals = frozenset(module_globals)
    frozen_ambient = frozenset(ambient_generators)
    summaries: list[FunctionSummary] = []
    for node, qualname, kind in _walk_functions(tree):
        summaries.append(
            _summarize_function(
                node,
                module=module,
                qualname=qualname,
                kind=kind,
                imports=imports,
                module_globals=frozen_globals,
                ambient_generators=frozen_ambient,
            )
        )
    # Module-level ``NAME = lambda ...`` bindings: rename the summary to
    # the bound name so call sites resolve to it.
    lambda_names = {
        node.value.lineno: target.id
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    renamed: list[FunctionSummary] = []
    for summary in summaries:
        if summary.kind == "lambda" and summary.lineno in lambda_names:
            bound = lambda_names[summary.lineno]
            if "." not in summary.qualname.replace(f"<lambda>@{summary.lineno}", ""):
                summary = FunctionSummary(
                    **{**summary.__dict__, "qualname": bound, "name": bound}
                )
        renamed.append(summary)

    return ModuleFacts(
        module=module,
        path=source.path,
        imports=imports,
        defs=defs,
        module_globals=frozen_globals,
        ambient_generators=frozen_ambient,
        declared_events=_declared_events_in(tree),
        enums=enums,
        dep_modules=frozenset(deps),
        summaries=tuple(renamed),
    )


# ----------------------------------------------------------------------
# The project model: index + resolution + fixed-point propagation
# ----------------------------------------------------------------------


@dataclass
class Transitive:
    """Summary facts closed over the call graph."""

    global_writes: set[tuple[str, str]] = field(default_factory=set)
    ambient_rng: set[str] = field(default_factory=set)
    raises: set[str] = field(default_factory=set)
    mutated_params: dict[str, MutationSite] = field(default_factory=dict)


class ProjectModel:
    """All modules of one lint run, resolvable and composed."""

    def __init__(self, facts: Mapping[str, ModuleFacts]):
        # path -> facts, plus module-name index (first definition wins;
        # a colliding dotted name makes resolution conservative: the
        # first collected file keeps the name).
        self._by_path: dict[str, ModuleFacts] = dict(facts)
        self._modules: dict[str, ModuleFacts] = {}
        self._functions: dict[str, FunctionSummary] = {}
        for module_facts in self._by_path.values():
            self._modules.setdefault(module_facts.module, module_facts)
            for summary in module_facts.summaries:
                self._functions.setdefault(summary.key, summary)
        self._transitive: dict[str, Transitive] | None = None

    # -- lookup --------------------------------------------------------

    def facts_for(self, path: str) -> ModuleFacts | None:
        return self._by_path.get(path)

    def module(self, name: str) -> ModuleFacts | None:
        return self._modules.get(name)

    def function(self, key: str) -> FunctionSummary | None:
        return self._functions.get(key)

    @property
    def functions(self) -> Mapping[str, FunctionSummary]:
        return self._functions

    def declared_events(self) -> tuple[dict[str, str], str] | None:
        """Merged DECLARED_EVENTS mapping and its defining path."""
        merged: dict[str, str] = {}
        where = ""
        for module_facts in self._by_path.values():
            if module_facts.declared_events is not None:
                merged.update(module_facts.declared_events)
                where = where or module_facts.path
        return (merged, where) if where else None

    # -- name resolution ----------------------------------------------

    def resolve_callable(
        self,
        module: str,
        parts: tuple[str, ...],
        *,
        scope: FunctionSummary | None = None,
        _depth: int = 0,
    ) -> str | None:
        """Function key a call expression resolves to, or ``None``."""
        if not parts or _depth > 8:
            return None
        facts = self._modules.get(module)
        if facts is None:
            return None
        head = parts[0]
        if scope is not None:
            if head in {"self", "cls"} and len(parts) == 2:
                class_name = scope.qualname.split(".", 1)[0]
                key = f"{module}::{class_name}.{parts[1]}"
                return key if key in self._functions else None
            if head in scope.local_defs and len(parts) == 1:
                key = f"{module}::{scope.local_defs[head]}"
                if key in self._functions:
                    return key
        imported = facts.imports.get(head)
        if imported is not None:
            return self._resolve_dotted(
                (*imported.split("."), *parts[1:]), _depth + 1
            )
        if len(parts) <= 2:
            key = f"{module}::{'.'.join(parts)}"
            if key in self._functions:
                return key
        return None

    def _resolve_dotted(
        self, parts: tuple[str, ...], _depth: int
    ) -> str | None:
        if _depth > 8:
            return None
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            facts = self._modules.get(module)
            if facts is None:
                continue
            rest = parts[cut:]
            imported = facts.imports.get(rest[0])
            if imported is not None:
                return self._resolve_dotted(
                    (*imported.split("."), *rest[1:]), _depth + 1
                )
            key = f"{module}::{'.'.join(rest)}"
            return key if key in self._functions else None
        return None

    # -- fixed point ---------------------------------------------------

    def transitive(self, key: str) -> Transitive:
        """Call-graph-closed facts for one function."""
        if self._transitive is None:
            self._transitive = self._propagate()
        return self._transitive.get(key, Transitive())

    def _propagate(self) -> dict[str, Transitive]:
        closed: dict[str, Transitive] = {}
        for key, summary in self._functions.items():
            transitive = Transitive()
            if summary.module not in AUDITED_STATE_MODULES:
                transitive.global_writes = {
                    (summary.module, write.name)
                    for write in summary.global_writes
                }
            transitive.ambient_rng = {
                use.generator for use in summary.ambient_rng
            }
            transitive.raises = set(summary.raises)
            transitive.mutated_params = {
                site.param: site for site in summary.mutations
            }
            closed[key] = transitive

        changed = True
        passes = 0
        while changed and passes < 50:
            changed = False
            passes += 1
            for key, summary in self._functions.items():
                mine = closed[key]
                for call in summary.calls:
                    callee_key = self.resolve_callable(
                        summary.module, call.target, scope=summary
                    )
                    if callee_key is None or callee_key == key:
                        continue
                    theirs = closed[callee_key]
                    callee = self._functions[callee_key]
                    before = (
                        len(mine.global_writes),
                        len(mine.ambient_rng),
                        len(mine.raises),
                        len(mine.mutated_params),
                    )
                    mine.global_writes |= theirs.global_writes
                    mine.ambient_rng |= theirs.ambient_rng
                    mine.raises |= theirs.raises
                    for position, caller_param in call.param_args:
                        if isinstance(position, int):
                            slot = position + call.arg_offset
                            if slot >= len(callee.params):
                                continue
                            callee_param = callee.params[slot]
                        else:
                            if position not in (*callee.params, *callee.kwonly):
                                continue
                            callee_param = position
                        if (
                            callee_param in theirs.mutated_params
                            and caller_param not in mine.mutated_params
                        ):
                            mine.mutated_params[caller_param] = MutationSite(
                                caller_param,
                                call.lineno,
                                call.col,
                                f"passed to {callee.name}() which mutates "
                                f"its {callee_param!r} parameter in place",
                            )
                    after = (
                        len(mine.global_writes),
                        len(mine.ambient_rng),
                        len(mine.raises),
                        len(mine.mutated_params),
                    )
                    if after != before:
                        changed = True
        return closed
