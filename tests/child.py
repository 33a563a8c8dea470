"""Run the smoothldc command line in a child interpreter with its own memory
cap and a timeout.

The cap is RLIMIT_AS, set in the child between fork and exec, so it bounds
that one process and nothing else: a command that would map more fails
there with MemoryError instead of growing."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import smoothldc

MEMORY_CAP = 512 << 20  # bytes of address space the child may map
TIMEOUT_S = 60


def package_env() -> dict:
    """Environment for a child interpreter that imports this smoothldc."""
    src = str(Path(smoothldc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_capped(*argv: str, cap: int = MEMORY_CAP, timeout: float = TIMEOUT_S) -> subprocess.CompletedProcess:
    """`python -m smoothldc *argv` in a child that may map at most *cap*
    bytes: its returncode, stdout and stderr (text). Past *timeout* seconds
    the child is killed and subprocess.TimeoutExpired raised."""

    def limit_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, "-m", "smoothldc", *argv],
        capture_output=True, text=True, timeout=timeout, env=package_env(), preexec_fn=limit_memory,
    )
