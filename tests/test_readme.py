"""README's Library example runs as written, in a fresh interpreter on src/."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# appended after the example: the plane count, on stderr so stdout stays
# exactly what the example prints
PLANE_COUNT = "\nimport sys\nprint(len(fit.planes), file=sys.stderr)\n"


def test_library_example_prints_one_line_per_plane(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    res = subprocess.run([sys.executable, "-c", example + PLANE_COUNT],
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    planes = int(res.stderr.split()[-1])
    lines = res.stdout.splitlines()
    assert planes >= 1 and len(lines) == planes, res.stdout
    assert all(line.startswith("[") for line in lines), res.stdout  # the normal first
