"""Cold start: scipy is loaded only when a process estimates normals.

Each case runs in a fresh interpreter on the package this test process
imports (the checkout's ``src/``, or an installed copy), so the modules
this process has already imported do not count.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mme
from mme.cli import EXIT_INVALID, EXIT_OK, main

# the directory that holds the mme package under test
PACKAGE_ROOT = Path(mme.__file__).resolve().parents[1]

# runs main(sys.argv[1:]); prints its exit code and whether scipy got imported
PROBE = """\
import sys
from mme.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, "scipy" in sys.modules)
"""


def fresh(code: str, *argv) -> list[str]:
    """The words `code` prints, run with argv in a fresh interpreter on
    PACKAGE_ROOT."""
    res = subprocess.run([sys.executable, "-c", code, *argv],
                         env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def fresh_main(*argv) -> tuple[int, bool]:
    code, loaded = fresh(PROBE, *argv)[-2:]
    return int(code), loaded == "True"


@pytest.fixture(scope="module")
def cube(tmp_path_factory):
    out = tmp_path_factory.mktemp("cold") / "cube.xyz"
    assert main(["synth", "--object", "cube", "--view", "2", "--sigma", "0",
                 "--seed", "5", "-o", str(out)]) == EXIT_OK
    return ["--cloud", str(out), "--constraints", str(out.with_suffix(".constraints")),
            "--seed", "3"]


def test_package_import_skips_scipy():
    assert fresh("import sys, mme, mme.cli; print('scipy' in sys.modules)") == ["False"]


def test_version_and_synth_skip_scipy(tmp_path):
    assert fresh_main("--version") == (0, False)
    assert fresh_main("synth", "--object", "pyramid", "-o", str(tmp_path / "p.xyz")) \
        == (EXIT_OK, False)


@pytest.mark.parametrize("method", ["iterative"])
def test_baseline_fits_skip_scipy(cube, method):
    assert fresh_main("fit", *cube, "--method", method) == (EXIT_OK, False)


def test_clustered_fit_loads_scipy(cube):
    # clustered RANSAC fits the PCC groups, which need estimated normals
    assert fresh_main("fit", *cube, "--method", "clustered") == (EXIT_OK, True)


def test_rejected_fit_skips_scipy(cube):
    assert fresh_main("fit", *cube, "--iterations", "0") == (EXIT_INVALID, False)


def test_constrained_fit_loads_scipy(cube):
    # one iteration: each constrained hypothesis grows over the whole cloud
    assert fresh_main("fit", *cube, "--iterations", "1") == (EXIT_OK, True)
