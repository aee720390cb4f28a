"""Online service mode — the equilibrium engine surviving a day of churn.

The paper's NASH algorithm computes one equilibrium for one static
system.  A real deployment never holds still: demand follows the clock,
users come and go, machines fail and come back.  This example runs the
online equilibrium engine through a compressed "day in production" —
a diurnal load curve with demand drift, a failure/reopen window for one
computer, and a flash crowd — re-equilibrating at every epoch, from
the previous equilibrium whenever it is still feasible, with every
epoch certified at the solver's standard epsilon, and SLA violations
accounted against a per-user response-time target.

It then deliberately breaks the system: every computer is failed at
once.  The engine does not crash — it surfaces the typed
CapacityExhausted error, holds the last good allocation, and recovers
by warm start the moment capacity returns.

Run:  python examples/online_service_demo.py [--trace day.trace.jsonl]
"""

from __future__ import annotations

import argparse
import contextlib

from repro import (
    ComputerFailure,
    ComputerReopen,
    EngineConfig,
    OnlineEquilibriumEngine,
    SLAPolicy,
    day_in_production_trace,
    paper_table1_system,
)
from repro.telemetry import trace_to_file, use_tracer


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="also write a telemetry trace (inspect with repro-trace engine)",
    )
    args = parser.parse_args(argv)

    with contextlib.ExitStack() as stack:
        if args.trace:
            tracer = stack.enter_context(trace_to_file(args.trace))
            stack.enter_context(use_tracer(tracer))

        system = paper_table1_system(utilization=0.5, n_users=12)
        engine = OnlineEquilibriumEngine(
            system,
            config=EngineConfig(sla=SLAPolicy(target_response_time=0.5)),
        )
        trace = day_in_production_trace(48, seed=0)
        run = engine.run(trace)

        print("a day in production (48 epochs + bootstrap)")
        print("-" * 56)
        print(f"epochs processed:        {run.n_epochs}")
        print(f"degraded-mode epochs:    {run.degraded_epochs}")
        print(f"warm-started epochs:     {run.warm_epochs}/{run.solved_epochs}")
        print(f"total best-reply sweeps: {run.total_sweeps}")
        print(f"every epoch certified:   {run.all_certified}")
        sla = run.sla
        assert sla is not None
        print(
            f"SLA (target {sla.target_response_time}s): "
            f"{sla.violations} violations, worst time {sla.worst_time:.4f}s"
        )

        # Now the pathological stretch: the whole fleet goes down at once.
        print()
        print("all-computers-down window")
        print("-" * 56)
        n = engine.state.n_computers
        down = engine.process_epoch(
            tuple(ComputerFailure(i) for i in range(n))
        )
        assert down.error is not None
        print(f"epoch status: {down.status}")
        print(f"typed error surfaced: {type(down.error).__name__}: {down.error}")
        print("engine holds the last good profile and keeps running.")

        up = engine.process_epoch(tuple(ComputerReopen(i) for i in range(n)))
        start = (
            "warm start carried the held profile"
            if up.warm_started
            else "cold start"
        )
        print(
            f"after reopen: status={up.status}, {start} "
            f"({up.sweeps} sweeps, certified={up.certified})"
        )

    if args.trace:
        print()
        print(f"trace written to {args.trace} — try: repro-trace engine "
              f"{args.trace}")


if __name__ == "__main__":
    main()
