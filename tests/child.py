"""Run csp-lab, or a few lines of Python, in a child process.

A run that never ends then fails its test through the timeout, 10 s unless
a test states its own time budget, instead of stalling the suite, and a
memory limit applies to the child only.
"""

import os
import resource
import subprocess
import sys

import csplab

SRC = os.path.dirname(os.path.dirname(csplab.__file__))


def run_child(argv=(), *, code=None, address_space=None, timeout=10):
    """``csp-lab argv``, or ``python -c code`` when code is given, with this
    checkout's package on PYTHONPATH; address_space, in bytes, is the
    child's RLIMIT_AS, and a child still running after timeout seconds
    raises subprocess.TimeoutExpired."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    command = ["-c", code] if code is not None else ["-m", "csplab.cli", *argv]
    return subprocess.run(
        [sys.executable, *command],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=timeout,
        preexec_fn=limit if address_space else None,
    )
