"""Shared infrastructure of the experiment harness.

Every experiment module regenerates one of the paper's tables or figures
as an :class:`ExperimentTable` — named columns, one row per x-axis point —
which renders to an aligned ASCII table (what the benchmark harness
prints) and to CSV (for external plotting).
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.core.continuation import SweepPredictor
from repro.core.model import DistributedSystem
from repro.experiments.parallel import parallel_map
from repro.experiments.shm import (
    ArrayRef,
    SharedArrayPlane,
    rehydrate,
    resolve,
    shm_available,
)
from repro.schemes import NashScheme, standard_schemes
from repro.schemes.base import LoadBalancingScheme, SchemeResult
from repro.telemetry.trace import current_tracer

__all__ = [
    "ExperimentTable",
    "run_schemes",
    "run_schemes_sweep",
    "SCHEME_ORDER",
]

#: Scheme identifiers in the paper's presentation order.
SCHEME_ORDER: tuple[str, ...] = ("NASH", "GOS", "IOS", "PS")


@dataclass(frozen=True)
class ExperimentTable:
    """One reproduced artifact (a paper table or figure's data).

    Attributes
    ----------
    experiment_id:
        Short id from DESIGN.md's experiment index ("F4", "T1", ...).
    title:
        Human-readable description including the paper artifact.
    columns:
        Ordered column names.
    rows:
        One mapping per data point; keys must be a subset of ``columns``.
    notes:
        Free-form provenance notes (parameters, substitutions).
    """

    experiment_id: str
    title: str
    columns: tuple[str, ...]
    rows: tuple[Mapping[str, Any], ...]
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        for row in self.rows:
            unknown = set(row) - set(self.columns)
            if unknown:
                raise ValueError(f"row has unknown columns: {sorted(unknown)}")

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(name)
        return [row.get(name) for row in self.rows]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _formatted_cells(self) -> list[list[str]]:
        def fmt(value: Any) -> str:
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value:.5g}"
            return str(value)

        return [[fmt(row.get(col)) for col in self.columns] for row in self.rows]

    def to_ascii(self) -> str:
        """Aligned, human-readable table (the benches print this)."""
        cells = self._formatted_cells()
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(self.columns)
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        header = "  ".join(col.ljust(w) for col, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """CSV text with a header row."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(self.columns))
        writer.writeheader()
        for row in self.rows:
            writer.writerow({col: row.get(col, "") for col in self.columns})
        return buffer.getvalue()

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            handle.write(self.to_csv())


def run_schemes(
    system: DistributedSystem,
    schemes: Sequence[LoadBalancingScheme] | None = None,
) -> dict[str, SchemeResult]:
    """Allocate with every scheme, keyed by scheme name.

    Defaults to the paper's four schemes (NASH, GOS, IOS, PS).
    """
    chosen = tuple(schemes) if schemes is not None else standard_schemes()
    results: dict[str, SchemeResult] = {}
    for scheme in chosen:
        result = scheme.allocate(system)
        if result.scheme in results:
            raise ValueError(f"duplicate scheme name {result.scheme!r}")
        results[result.scheme] = result
    return results


def _solve_sweep_point(
    point: tuple[Any, DistributedSystem, tuple[LoadBalancingScheme, ...] | None],
) -> tuple[Any, dict[str, SchemeResult]]:
    # Top-level function so sweep points pickle under the spawn method.
    parameter, system, schemes = point
    return parameter, run_schemes(system, schemes)


def _system_from_rates(
    mu: "Any", phi: "Any"
) -> DistributedSystem:
    # Factory for rehydrate(): validated once per worker per content.
    return DistributedSystem(service_rates=mu, arrival_rates=phi)


#: Zero-copy sweep point: the system travels as two shared-array handles
#: (rates dedupe across points — a sweep typically varies only one of
#: them) plus its names when — and only when — they are custom; default
#: names are regenerated worker-side for free.
ShmSweepPoint = tuple[
    Any,
    "ArrayRef | Any",
    "ArrayRef | Any",
    tuple[tuple[str, ...], tuple[str, ...]] | None,
    "tuple[LoadBalancingScheme, ...] | None",
]


def _solve_sweep_point_shm(
    point: ShmSweepPoint,
) -> tuple[Any, dict[str, SchemeResult]]:
    """Zero-copy twin of :func:`_solve_sweep_point` (pool worker).

    Rebuilds the :class:`DistributedSystem` from shared rate arrays; the
    construction (validation copies, default-name generation) is
    memoized per worker by content token, so every sweep point after the
    first against the same system is pure solve time.
    """
    parameter, mu_handle, phi_handle, names, schemes = point
    if names is None:
        system = rehydrate(_system_from_rates, mu_handle, phi_handle)
    else:
        system = DistributedSystem(
            service_rates=resolve(mu_handle),
            arrival_rates=resolve(phi_handle),
            computer_names=names[0],
            user_names=names[1],
        )
    return parameter, run_schemes(system, schemes)


def _sweep_axis_order(points: Sequence[tuple[Any, DistributedSystem]]) -> list[int]:
    """Point indices ordered along the sweep axis (input order fallback)."""
    try:
        return sorted(range(len(points)), key=lambda i: points[i][0])
    except TypeError:
        return list(range(len(points)))


def _run_sweep_continuation(
    points: Sequence[tuple[Any, DistributedSystem]],
    chosen: tuple[LoadBalancingScheme, ...] | None,
) -> list[tuple[Any, dict[str, SchemeResult]]]:
    """Solve the sweep serially, warm-starting each NASH solve.

    Points are visited in sweep-axis order; each :class:`NashScheme` in
    the scheme set is seeded with its previous point's equilibrium
    (adapted via :func:`repro.core.continuation.warm_start_profile`),
    falling back to the scheme's cold init when no usable warm start
    exists.  Results come back in the *input* point order.
    """
    scheme_set = chosen if chosen is not None else standard_schemes()
    predictors: dict[str, SweepPredictor] = {}
    solved: dict[int, tuple[Any, dict[str, SchemeResult]]] = {}
    for index in _sweep_axis_order(points):
        parameter, system = points[index]
        results: dict[str, SchemeResult] = {}
        for scheme in scheme_set:
            point_scheme = scheme
            warmed = False
            if isinstance(scheme, NashScheme):
                predictor = predictors.setdefault(
                    scheme.name, SweepPredictor()
                )
                warm = predictor.predict(parameter, system)
                if warm is not None:
                    point_scheme = scheme.warm_started(warm)
                    warmed = True
            result = point_scheme.allocate(system)
            if result.scheme in results:
                raise ValueError(f"duplicate scheme name {result.scheme!r}")
            if isinstance(scheme, NashScheme):
                result = dataclasses.replace(
                    result,
                    extra={**result.extra, "warm_started": warmed},
                )
                predictors[scheme.name].record(
                    parameter, result.profile, system
                )
            results[result.scheme] = result
        solved[index] = (parameter, results)
    return [solved[index] for index in range(len(points))]


def _emit_sweep_telemetry(
    sweep: Sequence[tuple[Any, dict[str, SchemeResult]]], *, continuation: bool
) -> None:
    """One ``sweep.point`` event per (point, scheme) on the ambient tracer.

    Emitted post-hoc in the calling process so both the serial and the
    process-pool sweep paths show up in ``repro-trace summary``.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return
    for parameter, results in sweep:
        for name, result in results.items():
            iterations = result.extra.get("iterations")
            tracer.emit(
                "sweep.point",
                parameter=parameter,
                scheme=name,
                iterations=None if iterations is None else int(iterations),
                warm_started=bool(result.extra.get("warm_started", False)),
                continuation=continuation,
                overall_time=float(result.overall_time),
            )
            tracer.count("sweep.points")


def run_schemes_sweep(
    points: Iterable[tuple[Any, DistributedSystem]],
    schemes: Sequence[LoadBalancingScheme] | None = None,
    *,
    n_workers: int = 1,
    use_shm: bool | None = None,
    continuation: bool = False,
) -> list[tuple[Any, dict[str, SchemeResult]]]:
    """Evaluate every scheme at every sweep point, optionally in parallel.

    ``points`` is a ``(parameter, system)`` iterable — typically
    :func:`repro.workloads.sweeps.sweep_points` — and the result keeps its
    order: one ``(parameter, {scheme_name: SchemeResult})`` pair per
    point.  ``n_workers > 1`` fans the points out over a process pool via
    :func:`repro.experiments.parallel.parallel_map` (systems and schemes
    are frozen dataclasses, hence picklable); the default stays serial so
    small sweeps and doctests avoid pool startup costs.

    ``continuation=True`` visits the points in sweep-axis order and
    warm-starts every NASH solve from the previous point's equilibrium
    (see :mod:`repro.core.continuation` and docs/PERFORMANCE.md) — same
    equilibria to the same certified tolerance, far fewer best-reply
    sweeps.  Continuation is inherently sequential, so it cannot be
    combined with ``n_workers > 1``.

    ``use_shm`` routes the system arrays through the zero-copy data
    plane (:mod:`repro.experiments.shm`): each point's rate vectors are
    published to shared memory (deduped by content — a utilization sweep
    re-publishes the same ``mu`` once) and workers rebuild the systems
    from read-only views, with per-worker construction memoization.
    ``None`` (default) engages the plane exactly when the sweep fans out
    over a pool; results are bit-identical either way.

    Each solved point is recorded on the ambient telemetry tracer as a
    ``sweep.point`` event (``repro-trace summary`` shows the roll-up).
    """
    chosen = tuple(schemes) if schemes is not None else None
    point_list = list(points)
    if continuation:
        if n_workers != 1:
            raise ValueError(
                "continuation sweeps are sequential; use n_workers=1"
            )
        sweep = _run_sweep_continuation(point_list, chosen)
    else:
        if use_shm is None:
            use_shm = (
                shm_available() and n_workers > 1 and len(point_list) > 1
            )
        if use_shm:
            with SharedArrayPlane() as plane:
                shm_work: list[ShmSweepPoint] = []
                for parameter, system in point_list:
                    defaults = system.has_default_names
                    names = (
                        None
                        if defaults[0] and defaults[1]
                        else (system.computer_names, system.user_names)
                    )
                    shm_work.append(
                        (
                            parameter,
                            plane.publish(system.service_rates),
                            plane.publish(system.arrival_rates),
                            names,
                            chosen,
                        )
                    )
                sweep = parallel_map(
                    _solve_sweep_point_shm,
                    shm_work,
                    n_workers=n_workers,
                )
        else:
            work = [
                (parameter, system, chosen) for parameter, system in point_list
            ]
            sweep = parallel_map(
                _solve_sweep_point,
                work,
                n_workers=n_workers,
            )
    _emit_sweep_telemetry(sweep, continuation=continuation)
    return sweep
