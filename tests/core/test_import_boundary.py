"""``repro.core`` stays a leaf: it never loads the process-pool layer."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import repro

PROBE = """
import sys
import repro.core
loaded = sorted(
    name
    for name in sys.modules
    if name == "repro.experiments"
    or name.startswith("repro.experiments.")
    or name == "multiprocessing.shared_memory"
)
print("\\n".join(loaded))
"""


def test_core_import_loads_no_pool_layer():
    # A fresh interpreter: this test process has long since imported
    # everything, so only a clean one shows what ``repro.core`` drags in.
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
