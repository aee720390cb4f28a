"""R006 — pool purity: submitted callables are module-level and pure.

The process-pool layer (:mod:`repro.experiments.parallel`) assumes
that every work unit crossing a process boundary is (a) picklable — a
module-level function, not a lambda, closure or nested def — and (b)
free of module-global writes, because a global written in a worker is
silently *not* the coordinator's global (fork) or lost entirely
(spawn).  Both hazards look like they
work in small serial tests and corrupt results only at scale.

The rule resolves every callable handed to ``parallel_map`` /
``ProcessPoolExecutor.submit`` / ``.map`` back to its defining summary
via the project model and checks, over the *whole call graph* reachable
from it, that no module global is written.  Module-state writes defined
inside the audited infrastructure modules
(:data:`~repro.analysis.project.AUDITED_STATE_MODULES` — the executor
cache and the ambient tracer stack, both deliberately process-local)
are exempt.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.context import ProjectContext
from repro.analysis.finding import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.rules._pools import resolve_submitted, submission_sites
from repro.analysis.source import SourceFile

__all__ = ["PoolPurity"]


@register
class PoolPurity(Rule):
    code = "R006"
    name = "pool-purity"
    rationale = (
        "callables crossing a process-pool boundary must be module-level "
        "(picklable) and must not write module globals anywhere in their "
        "call graph — worker-side global writes are lost or diverge"
    )

    def check(
        self, source: SourceFile, context: ProjectContext
    ) -> Iterator[Finding]:
        if source.is_test_file:
            return
        facts = context.facts_for(source)
        model = context.model
        for site in submission_sites(source, facts):
            line = site.call.lineno
            col = site.call.col_offset
            key, summary = resolve_submitted(model, facts, site)
            if key == "<lambda>":
                yield self.finding(
                    source,
                    site.callable_expr.lineno,
                    site.callable_expr.col_offset,
                    f"lambda passed to {site.via}(): pool callables must "
                    "be module-level named functions (lambdas do not "
                    "pickle)",
                )
                continue
            if summary is None:
                continue  # unresolvable (e.g. a parameter): out of scope
            if summary.kind == "nested":
                yield self.finding(
                    source,
                    line,
                    col,
                    f"{summary.name}() passed to {site.via}() is a nested "
                    f"function (defined inside {summary.qualname.split('.', 1)[0]}()): "
                    "closures do not pickle — move it to module level",
                )
                continue
            if summary.kind == "lambda":
                yield self.finding(
                    source,
                    line,
                    col,
                    f"{site.via}() target {summary.qualname!r} is a "
                    "module-level lambda: use a named def so tracebacks "
                    "and pickling are well-defined",
                )
                continue
            if summary.kind == "method":
                yield self.finding(
                    source,
                    line,
                    col,
                    f"{summary.qualname}() passed to {site.via}() is a "
                    "method: pool callables must be module-level "
                    "functions of picklable arguments",
                )
                continue
            writes = sorted(model.transitive(key).global_writes)
            for module, name in writes:
                yield self.finding(
                    source,
                    line,
                    col,
                    f"{summary.name}() submitted to {site.via}() writes "
                    f"module global {module}.{name} somewhere in its call "
                    "graph: worker-side global writes are lost (spawn) or "
                    "diverge from the coordinator (fork) — return the "
                    "value instead",
                )
