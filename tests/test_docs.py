"""The README's library example, CLI lines and golden-table script, as documented."""
import importlib
import os
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys

import sparsepaving
from sparsepaving import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_python_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out == "26\n"


def test_readme_cli_lines_parse():
    # parsed, not run: a removed or misspelt flag in an example exits 2 here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("sparsepaving ")]
    assert len(lines) >= 5
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])


def test_readme_module_references_resolve():
    # a name deleted from the library must not stay in the README
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = {m.name for m in pkgutil.iter_modules(sparsepaving.__path__)}
    refs = {(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)`", readme) if mod in modules}
    assert len(refs) >= 3
    for mod, name in sorted(refs):
        assert hasattr(importlib.import_module(f"sparsepaving.{mod}"), name), f"{mod}.{name}"


def test_public_names_resolve():
    names = sparsepaving.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(sparsepaving, name) is not None, name


def test_regen_golden_runs_uninstalled(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "regen_golden.py"), "--help"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
