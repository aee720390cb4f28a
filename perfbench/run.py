"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(perfbench/worker.py) whose standard error is captured, because the
shared-memory leak warnings this benchmark counts are printed by the
multiprocessing resource tracker only when that process exits.  With
``--trace 1`` the count is added as ``experiments.shm.leak_warnings``.
The last line of standard output is the result object; the lines before
it list every failed op with its instance parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

#: Longest a run may take before the worker and its children are killed.
TIMEOUT_S = 170
LEAK_MARKER = "leaked shared_memory"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "churn", "ring", "paper"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no repro sources under {src}: run from the repository root",
              file=sys.stderr)
        return 2

    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    env = dict(os.environ, PYTHONPATH=src)
    command = [
        sys.executable, worker,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # A session of its own, so a timeout can kill the pool workers and the
    # resource tracker along with the worker.
    proc = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        sys.stderr.write(err)
        print(f"worker timed out after {TIMEOUT_S}s", file=sys.stderr)
        return 3
    sys.stderr.write(err)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1

    result = json.loads(lines[-1])
    if args.trace:
        leaks = sum(LEAK_MARKER in line for line in err.splitlines())
        result["metrics"]["experiments.shm.leak_warnings"] = {
            "value": leaks, "unit": "count"
        }
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
