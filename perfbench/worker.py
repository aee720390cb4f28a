"""Run one workload in this process and print its result as one JSON line.

Started by run.py from the root of a checkout; ``src/`` of that checkout
is the ``repro`` under test.  Set-up (imports, inputs, engine bootstraps,
pool start-up) is timed, then the measured phase repeats passes over the
workload's fixed op list for the run's seconds, checking every output
after its pass.

Times are corrected for the host's speed (see :class:`HostSpeed`), and an
op's latency is the fastest of its corrected repeats in the run.  On a
shared 2-vCPU virtual machine the speed of the same code drifts by up to
2x, over periods from seconds to minutes: the fastest repeat absorbs the
short slow spells, the correction the long ones.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
from scipy.stats.mstats import hdquantiles  # noqa: E402

#: Set-ups per run; setup_s is the import time plus their median.
SETUPS = 5


class HostSpeed:
    """The host's current speed, sampled with a fixed reference kernel.

    The kernel mixes small NumPy calls with a Python loop, as the solver
    and protocol code does, and uses nothing from ``repro``, so a change
    to ``repro`` cannot change its time.  ``factor()`` is
    ``REFERENCE_S / kernel time``; multiplying a measured time by the
    factor gives the time the same work takes on a host where the kernel
    takes ``REFERENCE_S``, the kernel's time on a quiet host.
    """

    #: The kernel's time (best of three) on a quiet 2-vCPU Xeon virtual
    #: machine.
    REFERENCE_S = 0.9e-3
    #: A sample older than this is taken again when the factor is asked for.
    STALE_S = 0.15

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.random(64)
        self._a = rng.random((64, 64)) / 64.0
        self._taken = float("-inf")
        self._factor = 1.0
        #: Every kernel time measured, in seconds.
        self.samples: list[float] = []

    def _kernel(self) -> float:
        x, total = self._x, 0.0
        for _ in range(250):
            x = np.tanh(self._a @ x) + 0.5
            for value in x[:24].tolist():
                total += value * value
        return total

    def factor(self) -> float:
        # The best of three runs: the first can still pay for the caches
        # the op before it evicted.
        if perf_counter() - self._taken > self.STALE_S:
            times = []
            for _ in range(3):
                started = perf_counter()
                self._kernel()
                times.append(perf_counter() - started)
            self._taken = perf_counter()
            self.samples.append(min(times))
            self._factor = self.REFERENCE_S / self.samples[-1]
        return self._factor


def _import_repro(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")
    import layer_map
    import layers
    import workloads

    return layer_map, layers, workloads


def _time_pass(ops, host: HostSpeed) -> tuple[list, list[float]]:
    """Run one pass op by op; return the outputs and the corrected latencies.

    An op's latency is scaled by the mean of the host factors sampled just
    before and just after it.  An output is ``(value, None)``, or
    ``(None, reason)`` for an op that raised.
    """
    outputs, latencies, factors = [], [], []
    # Start every pass from a collected heap, so the previous pass's
    # garbage does not set off a full collection inside this one.
    gc.collect()
    for op in ops:
        factors.append(host.factor())
        t = perf_counter()
        try:
            outputs.append((op(), None))
        except Exception as error:  # a raising op is a failed op
            outputs.append((None, f"raised {type(error).__name__}: {error}"))
        latencies.append(perf_counter() - t)
    factors.append(host.factor())
    corrected = [
        latency * (before + after) / 2.0
        for latency, before, after in zip(latencies, factors, factors[1:])
    ]
    return outputs, corrected


def _check_pass(workload, outputs, label: str, failures: list) -> None:
    """Check a pass's outputs, outside any timing and tracing."""
    for index, (output, error) in enumerate(outputs):
        reason = error if error is not None else workload.check(index, output)
        if reason is not None:
            failures.append(
                f"failed op: workload={workload.name} {label} index={index} "
                f"{workload.describe(index)}: {reason}"
            )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    layer_map, layers, workloads = _import_repro(os.getcwd())
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    import_s = perf_counter() - STARTED

    host = HostSpeed()
    before = host.factor()
    prepare = []
    for _ in range(SETUPS):
        t = perf_counter()
        workload = workloads.WORKLOADS[args.workload]()
        workload.setup(args.seed)
        ops = workload.new_pass()
        prepare.append(perf_counter() - t)
    host_setup = (before + host.factor()) / 2.0
    setup_s = (import_s + statistics.median(prepare)) * host_setup

    failures: list[str] = []
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    recorder = layers.SpanRecorder()
    restored = True
    measured = longest = 0.0
    try:
        while True:
            started = perf_counter()
            outputs, latencies = _time_pass(ops, host)
            plain.append(latencies)
            _check_pass(workload, outputs, f"pass={len(plain)}", failures)
            if args.trace:
                # Pair every plain pass with a pass under the wrappers; the
                # ops are built first so engine bootstraps stay untraced.
                ops = workload.new_pass()
                with layers.LayerTrace(layer_map.BOUNDARIES, recorder).install() as trace:
                    outputs, latencies = _time_pass(ops, host)
                traced.append(latencies)
                restored = restored and trace.restored()
                _check_pass(workload, outputs, f"pass={len(traced)} traced", failures)
            elapsed = perf_counter() - started
            measured += elapsed
            longest = max(longest, elapsed)
            if measured + longest > args.seconds:
                break
            ops = workload.new_pass()
    finally:
        workload.close()
    if not restored:
        failures.append("failed op: a wrapped attribute was not restored")

    for line in failures:
        print(line)
    best = np.min(np.asarray(plain), axis=0)
    attempted = sum(map(len, plain)) + sum(map(len, traced))
    if args.trace:
        # Layer spans are raw seconds: the wrappers do not see the factor.
        metrics = layer_map.layer_metrics(recorder, passes=len(traced))
        traced_best = np.min(np.asarray(traced), axis=0)
        metrics["trace.overhead_frac"] = float(traced_best.sum() / best.sum() - 1.0)
        result_metrics = {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in layer_map.PER_LAYER.items()
            if name in metrics
        }
    else:
        ms = best * 1e3
        # Harrell-Davis estimates weigh every op's best by its closeness in
        # rank to the quantile, instead of reading one or two ops.
        p50, p95 = hdquantiles(ms, prob=[0.5, 0.95])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result_metrics = {
            "wall_s": {"value": float(best.sum()), "unit": "s"},
            "op_p50_ms": {"value": float(p50), "unit": "ms"},
            "op_p95_ms": {"value": float(p95), "unit": "ms"},
            "ok_frac": {"value": 1.0 - len(failures) / attempted, "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    kernel_ms = 1e3 * np.asarray(host.samples)
    print(
        f"workload={args.workload} seed={args.seed} passes={len(plain)} "
        f"traced_passes={len(traced)} ops_per_pass={len(best)} "
        f"attempted={attempted} failed={len(failures)} "
        f"host_kernel_ms_median={np.median(kernel_ms):.4f} "
        f"host_kernel_ms_min={kernel_ms.min():.4f} host_samples={kernel_ms.size}"
    )
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
