"""Seeded fuzzing of the file readers and ``mme fit`` on mutated good files.

Each case mutates a clean cloud file and its model file, then reads both
and runs ``mme fit`` on them.  The readers may only return or raise
ValueError.  ``main`` must exit 0, 1 or 2 without a traceback, print
exactly one ``error:`` line on exit 1 and none otherwise, and finish the
case within CASE_SECONDS.  Models stay at MAX_PLANES planes: the
assignment search has no bound yet, and a model of 7 or more planes can
keep it busy for minutes.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from mme.cli import EXIT_INVALID, main
from mme.normals import NormalEstimationConfig, estimate_normals
from mme.pcc import read_constraint_matrix
from mme.synth import NoiseSpec, generate_view, get_object, read_cloud, turntable_view, write_cloud

SEED = 6
CASES = 60
CASE_SECONDS = 30.0
MAX_PLANES = 5
K_NEIGHBORS = NormalEstimationConfig().k_neighbors  # the fit default
SPECIAL = ("inf", "-inf", "nan", "1e308", "-1e308", "-0")
METHODS = ("mme", "mme", "clustered", "iterative")


def _rows(path) -> list[list[str]]:
    return [line.split() for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")]


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """(cloud rows, model rows) of a cube view written with normals and
    labels (307 points), and of a double-pyramid view written with labels
    only (171 points)."""
    tmp = tmp_path_factory.mktemp("fuzz")
    files = []
    for name, with_normals in (("cube", True), ("double_pyramid", False)):
        obj = get_object(name)
        cloud = generate_view(replace(obj, sampling_density=40.0), turntable_view(obj, 2),
                              noise=NoiseSpec(0.0, 4e-5), rng_seed=3)
        if with_normals:
            cloud = estimate_normals(cloud)
        write_cloud(tmp / f"{name}.xyz", cloud)
        model = [[str(obj.model_matrix.size)]]
        model += [[f"{v:.17g}" for v in row] for row in obj.model_matrix.entries]
        files.append((_rows(tmp / f"{name}.xyz"), model))
    return files


def _cloud_mutation(rows, rng):
    kind = str(rng.choice(["drop_column", "add_column", "inject", "duplicate", "collinear", "tiny"]))
    rows = [list(r) for r in rows]
    if kind == "drop_column":
        col = int(rng.integers(len(rows[0])))
        targets = rows if rng.random() < 0.5 else [rows[int(rng.integers(len(rows)))]]
        for r in targets:
            del r[col]
    elif kind == "add_column":
        targets = rows if rng.random() < 0.5 else [rows[int(rng.integers(len(rows)))]]
        for r in targets:
            r.append(f"{rng.normal():.6g}")
    elif kind == "inject":
        for _ in range(int(rng.integers(1, 4))):
            r = rows[int(rng.integers(len(rows)))]
            r[int(rng.integers(len(r)))] = str(rng.choice(SPECIAL))
    elif kind == "duplicate":
        if rng.random() < 0.5:
            rows = [r for r in rows for _ in range(2)]
        else:
            rows = [list(rows[0]) for _ in rows]
    elif kind == "collinear":
        for t, r in zip(np.linspace(0.0, 1.0, len(rows)), rows):
            r[:3] = [f"{v:.17g}" for v in (t, 2.0 * t, 1.0 - t)]
    else:  # tiny: 1 to k+1 points
        keep = rng.choice(len(rows), size=int(rng.integers(1, K_NEIGHBORS + 2)), replace=False)
        rows = [rows[i] for i in sorted(keep)]
    return kind, rows


def _model_mutation(model, rng):
    kind = str(rng.choice(["planes", "inject", "columns"]))
    model = [list(r) for r in model]
    if kind == "planes":  # up to MAX_PLANES, often more than the view shows
        n = int(rng.integers(1, MAX_PLANES + 1))
        entries = np.triu(rng.integers(0, 13, size=(n, n)) * 15.0, 1)
        entries = entries + entries.T
        model = [[str(n)]] + [[f"{v:g}" for v in row] for row in entries]
    elif kind == "inject":
        r = model[int(rng.integers(1, len(model)))]
        r[int(rng.integers(len(r)))] = str(rng.choice(SPECIAL))
    else:
        r = model[int(rng.integers(1, len(model)))]
        if rng.random() < 0.5:
            del r[int(rng.integers(len(r)))]
        else:
            r.append("90")
    return kind, model


@pytest.mark.parametrize("case", range(CASES))
def test_mutated_files(good_files, tmp_path, capsys, case):
    rng = np.random.default_rng([SEED, case])
    cloud_rows, model_rows = good_files[int(rng.integers(len(good_files)))]
    kinds = []
    mutate = rng.integers(1, 4)  # 1: cloud, 2: model, 3: both
    if mutate & 1:
        kind, cloud_rows = _cloud_mutation(cloud_rows, rng)
        kinds.append(kind)
    if mutate & 2:
        kind, model_rows = _model_mutation(model_rows, rng)
        kinds.append(f"model {kind}")
    cloud_path, model_path = tmp_path / "cloud.xyz", tmp_path / "model.constraints"
    cloud_path.write_text("".join(" ".join(r) + "\n" for r in cloud_rows))
    model_path.write_text("".join(" ".join(r) + "\n" for r in model_rows))
    method = str(rng.choice(METHODS))

    start = time.perf_counter()
    for read, path in ((read_cloud, cloud_path), (read_constraint_matrix, model_path)):
        try:
            read(path)
        except ValueError:
            pass
    capsys.readouterr()
    try:
        code = main(["fit", "--cloud", str(cloud_path), "--constraints", str(model_path),
                     "--method", method, "--iterations", "5", "--seed", str(case)])
    except SystemExit as exc:
        code = exc.code
    elapsed = time.perf_counter() - start

    detail = (kinds, method, code)
    assert code in (0, 1, 2), detail
    err = capsys.readouterr().err
    assert "Traceback" not in err, detail
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (1 if code == EXIT_INVALID else 0), (detail, err)
    assert elapsed < CASE_SECONDS, (detail, elapsed)
