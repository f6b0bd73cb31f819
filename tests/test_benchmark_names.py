"""The library names that the benchmark's span tracer wraps still resolve."""
import os
import pathlib
import subprocess
import sys

from helpers import cli_env

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_span_tracer_installs():
    # perfbench/spans.py wraps library functions and JohnsonGraph methods by
    # name, so a deleted or renamed one breaks `perfbench/run.py --trace 1`
    env = cli_env()
    env["PYTHONPATH"] += os.pathsep + str(ROOT / "perfbench")
    probe = (
        "from sparsepaving import census, core, extremal, johnson, minors\n"
        "import spans\n"
        "tracer = spans.Tracer()\n"
        "spans.install(tracer)\n"
        "print(len(tracer.names) == len(spans.FUNCTIONS) + len(spans.METHODS))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
