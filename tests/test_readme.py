"""README's examples run as written: the quick start through the CLI's
main, the Library example in a fresh interpreter on src/."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from mme.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]

# appended after the example: the plane count, on stderr so stdout stays
# exactly what the example prints
PLANE_COUNT = "\nimport sys\nprint(len(fit.planes), file=sys.stderr)\n"

# the example's stdout on numpy 2.4.6 (the version CI pins), byte for byte:
# the library path, with its reference directions, is pinned as the CLI is
STDOUT = """\
[-0.0020829   0.93928642 -0.3431278 ] -0.5304848346254296 505
[-0.25833131  0.89627592  0.3604919 ] 1.0918078529390043 510
[-0.27331619 -0.44366454  0.8534987 ] 2.5623720496795555 865
[ 0.65607567 -0.5695407   0.49516473] 1.4836317178355125 410
"""


def readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def test_quick_start_prints_the_lines_it_shows(tmp_path, monkeypatch, capsys):
    # each `# ` line under `mme fit`, up to the `# ...` elision, is a line
    # the fit prints; the pinned stdout itself lives in tests/test_cli.py
    block = re.search(r"```sh\n(.*?)```", readme().split("## Command line", 1)[1],
                      re.S).group(1).splitlines()
    monkeypatch.chdir(tmp_path)
    for command in ("mme synth ", "mme fit "):
        at = next(i for i, line in enumerate(block) if line.startswith(command))
        capsys.readouterr()
        assert main(shlex.split(block[at])[1:]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
    shown = []
    for line in block[at + 1:]:
        if line == "# ..." or not line.startswith("# "):
            break
        shown.append(line[2:])
    assert len(shown) >= 2 and printed[:len(shown)] == shown, (shown, printed)


def test_library_example_prints_one_line_per_plane(tmp_path):
    library = readme().split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    res = subprocess.run([sys.executable, "-c", example + PLANE_COUNT],
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    planes = int(res.stderr.split()[-1])
    lines = res.stdout.splitlines()
    assert planes >= 1 and len(lines) == planes, res.stdout
    assert all(line.startswith("[") for line in lines), res.stdout  # the normal first
    assert res.stdout == STDOUT
