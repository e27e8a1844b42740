"""The built package ships schema.json: setuptools' build_py, run on a copy
of the sources, puts it next to cli.py, and `endospec schema` run from the
build prints the pinned bytes. build_py needs neither the network nor the
wheel package."""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

from test_golden_bytes import SCHEMA_DIGEST

ROOT = Path(__file__).resolve().parents[1]


def test_build_ships_the_schema(tmp_path):
    tree = tmp_path / "tree"
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "src", tree / "src", ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tree / name)
    lib = tmp_path / "lib"
    setup = "import setuptools; setuptools.setup()"
    subprocess.run(
        [sys.executable, "-c", setup, "build_py", "--build-lib", str(lib)],
        cwd=tree,
        check=True,
        capture_output=True,
    )
    assert (lib / "endospec" / "schema.json").is_file()
    proc = subprocess.run(
        [sys.executable, "-m", "endospec.cli", "schema", "--json-only"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(lib)},
        capture_output=True,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == SCHEMA_DIGEST
