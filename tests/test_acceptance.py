"""End-to-end acceptance checks.

Ten numbered release criteria covering the whole pipeline: the reference
assignment example, brute-force search equivalence, constraint soundness,
the error-metric arithmetic, the desk-scale benchmark orderings and
magnitudes, orientation-error crossover, cluster-selection ratios,
determinism, fit optimality, and the failure-feedback path.

Each test finishes by printing one PASS/FAIL line (visible with -rA or on
failure) and asserting the same condition.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import planar_cloud, random_rotation
from mme.bench import (
    BENCH_KMEANS_RESTARTS,
    BENCH_NORMALS,
    BENCH_PCC_TOLERANCE_DEG,
    constraint_error_from_angles,
    run_experiment,
    summarize,
)
from mme.cli import EXIT_NO_FIT, EXIT_OK, main
from mme.geometry import PointCloud, angle_between, angle_deviation, fit_plane_lsq
from mme.mcransac import McRansacConfig, NoSatisfyingFit, run_mcransac
from mme.normals import estimate_normals
from mme.pcc import (
    EMPTY,
    ConstraintMatrix,
    NoSolution,
    PccConfig,
    run_pcc,
    similarity_reduction,
    solution_groups,
    tree_search,
)
from mme.synth import NoiseSpec, generate_view, get_object, turntable_view
from oracle import assignment, enumerate_assignments, random_search_instance
from test_pcc import MODEL_3, OBSERVED_4

OBJECTS = ("cube", "pyramid", "double_pyramid")
SIGMAS = (1e-5, 4e-5, 6e-5)
SWEEP_SEED = 0

# Reference mean angular errors (degrees) for these scenes and noise
# levels, per (object, method, sigma index); a correct implementation
# must land within a factor of two of each entry.
REFERENCE_GAMMA = {
    ("cube", "mme"): (0.30123, 0.57041, 0.77933),
    ("cube", "clustered"): (0.30324, 1.19646, 2.69095),
    ("pyramid", "mme"): (0.43868, 0.58772, 0.66831),
    ("pyramid", "clustered"): (0.99062, 3.41070, 5.21775),
    ("double_pyramid", "mme"): (0.5477, 1.27398, 1.51525),
    ("double_pyramid", "clustered"): (0.82737, 3.30565, 6.44233),
}


def report(tag: str, ok: bool, detail: str = "") -> bool:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}{' — ' + detail if detail else ''}")
    return ok


@pytest.fixture(scope="session")
def sweep():
    """The full two-method benchmark sweep shared by criteria 3, 5 and 6."""
    t0 = time.perf_counter()
    rows = []
    for method in ("mme", "clustered"):
        rows.extend(run_experiment(method, OBJECTS, SIGMAS, views=8, repeats=5,
                                   seed=SWEEP_SEED))
    elapsed = time.perf_counter() - t0
    cells = {(c["method"], c["object"], c["sigma"]): c for c in summarize(rows)}
    return rows, cells, elapsed


def test_criterion_01_reference_example_and_search():
    t0 = time.perf_counter()
    cfg = PccConfig(similarity_threshold_deg=5.0, constraint_tolerance_deg=5.0)
    model = ConstraintMatrix(MODEL_3)
    observed = ConstraintMatrix(OBSERVED_4)
    cands = similarity_reduction(model, observed, cfg)
    sol = tree_search(model, observed, cands, [100, 200, 100, 100], cfg)
    elapsed = time.perf_counter() - t0
    ok = (cands == [[0, 2], [1], [0, 1, 2], [0, 2]]
          and sol.mapping == (0, 1, EMPTY)
          and sol.total_points == 300
          and elapsed < 1.0)
    assert report("criterion 1", ok,
                  f"candidates={cands} mapping={sol.mapping} "
                  f"total={sol.total_points} elapsed={elapsed:.3f}s")


def test_criterion_02_search_equals_bruteforce():
    rng = np.random.default_rng(777)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        model, observed, cands, sizes, tol = random_search_instance(rng)
        expected = enumerate_assignments(model, observed, cands, sizes, tol)
        try:
            sol = tree_search(ConstraintMatrix(model), ConstraintMatrix(observed),
                              cands, sizes, PccConfig(constraint_tolerance_deg=tol))
            got = (sol.mapping, sol.total_points)
        except NoSolution:
            got = None
        mismatches += got != expected
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert report("criterion 2", ok,
                  f"mismatches={mismatches}/100 elapsed={elapsed:.2f}s")


def test_criterion_03_constraint_soundness(sweep):
    rows, _, _ = sweep
    mme_rows = [r for r in rows if r.method == "mme"]
    violations = sum(r.report.status == "constraint_violation" for r in mme_rows)
    satisfied = sum(r.report.status == "ok" for r in mme_rows)

    # independent spot re-check of one satisfied fit, straight from the
    # library outputs rather than the harness bookkeeping
    obj = get_object("cube")
    view = turntable_view(obj, 1)
    cloud = estimate_normals(
        generate_view(obj, view, noise=NoiseSpec(0.0, 1e-5), rng_seed=3),
        BENCH_NORMALS)
    solution, clustering = run_pcc(
        cloud, obj.model_matrix,
        PccConfig(constraint_tolerance_deg=BENCH_PCC_TOLERANCE_DEG,
                  kmeans_restarts=BENCH_KMEANS_RESTARTS, rng_seed=3))
    groups = solution_groups(solution, clustering)
    from mme.mcransac import restrict_constraints
    sub = restrict_constraints(obj.model_matrix, solution)
    fit = run_mcransac(groups, cloud, sub,
                       McRansacConfig(iterations=10, min_eval_fraction=0.05,
                                      constraint_tolerance_deg=2.0, rng_seed=3))
    worst = 0.0
    for i in range(len(fit.planes)):
        for j in range(i + 1, len(fit.planes)):
            measured = angle_between(fit.planes[i].normal, fit.planes[j].normal)
            worst = max(worst, angle_deviation(measured, float(sub.entries[i, j])))

    ok = violations == 0 and satisfied > 0 and worst <= 2.0
    assert report("criterion 3", ok,
                  f"violations={violations} satisfied_cells={satisfied} "
                  f"spot_check_worst_dev={worst:.3f}deg")


def test_criterion_04_error_metric_arithmetic():
    gamma, rho = constraint_error_from_angles([90.0, 88.0, 91.0],
                                              [90.0, 90.0, 90.0])
    ok = abs(gamma - 1.0) <= 1e-12 and abs(rho - math.sqrt(2.0 / 3.0)) <= 1e-12
    assert report("criterion 4", ok, f"gamma={gamma!r} rho={rho!r}")


def test_criterion_05_benchmark_bands_and_ordering(sweep):
    _, cells, elapsed = sweep
    failures = []
    for obj in OBJECTS:
        for si, sigma in enumerate(SIGMAS):
            mme = cells[("mme", obj, sigma)]["mean_gamma"]
            clustered = cells[("clustered", obj, sigma)]["mean_gamma"]
            if not mme < clustered:
                failures.append(f"{obj}@{sigma:g}: ordering {mme:.3f}>={clustered:.3f}")
            for method, value in (("mme", mme), ("clustered", clustered)):
                ref = REFERENCE_GAMMA[(obj, method)][si]
                if not ref / 2.0 <= value <= ref * 2.0:
                    failures.append(
                        f"{obj}/{method}@{sigma:g}: {value:.4f} outside "
                        f"[{ref / 2.0:.4f}, {ref * 2.0:.4f}]")
    gaps = [cells[("clustered", "cube", s)]["mean_gamma"]
            - cells[("mme", "cube", s)]["mean_gamma"] for s in SIGMAS]
    if not (gaps[0] < gaps[1] < gaps[2]):
        failures.append(f"cube gap not monotone: {[f'{g:.3f}' for g in gaps]}")
    if elapsed >= 300.0:
        failures.append(f"sweep took {elapsed:.0f}s")
    ok = not failures
    assert report("criterion 5", ok,
                  f"elapsed={elapsed:.1f}s gaps={[f'{g:.3f}' for g in gaps]}"
                  + (f" failures={failures}" if failures else ""))


def test_criterion_06_orientation_crossover(sweep):
    _, cells, _ = sweep
    failures = []
    for obj in OBJECTS:
        mme = cells[("mme", obj, 6e-5)]["mean_orientation_error"]
        clustered = cells[("clustered", obj, 6e-5)]["mean_orientation_error"]
        if not mme < clustered:
            failures.append(f"{obj}: {mme:.3f} >= {clustered:.3f}")
    # at the lowest noise the two-plane object may go either way; record
    # the values without asserting an order
    low = (cells[("mme", "pyramid", 1e-5)]["mean_orientation_error"],
           cells[("clustered", "pyramid", 1e-5)]["mean_orientation_error"])
    ok = not failures
    assert report("criterion 6", ok,
                  f"low-noise pyramid {low[0]:.3f} vs {low[1]:.3f}"
                  + (f" failures={failures}" if failures else ""))


def test_criterion_07_cluster_selection_ratio():
    def ratio(obj_name, sigma, seed):
        obj = get_object(obj_name)
        view = turntable_view(obj, 1 + seed % 8)
        cloud = estimate_normals(
            generate_view(obj, view, noise=NoiseSpec(0.0, sigma), rng_seed=seed),
            BENCH_NORMALS)
        solution, clustering = run_pcc(
            cloud, obj.model_matrix,
            PccConfig(constraint_tolerance_deg=BENCH_PCC_TOLERANCE_DEG,
                      kmeans_restarts=BENCH_KMEANS_RESTARTS, rng_seed=seed))
        groups = solution_groups(solution, clustering)
        return sum(g.shape[0] for g in groups) / len(cloud)

    failures = []
    detail = []
    for name in OBJECTS:
        clean = float(np.mean([ratio(name, 0.0, s) for s in range(5)]))
        noisy = float(np.mean([ratio(name, 6e-5, s) for s in range(5)]))
        detail.append(f"{name}: {clean:.4f}->{noisy:.4f}")
        if clean < 0.95:
            failures.append(f"{name}: clean ratio {clean:.4f} < 0.95")
        if noisy > clean:
            failures.append(f"{name}: noisy ratio {noisy:.4f} > clean {clean:.4f}")
    ok = not failures
    assert report("criterion 7", ok, "; ".join(detail)
                  + (f" failures={failures}" if failures else ""))


def test_criterion_08_determinism(tmp_path, capsys):
    problems = []
    obj = get_object("pyramid")
    view = turntable_view(obj, 2)

    clouds = [generate_view(obj, view, noise=NoiseSpec(0.0, 1e-5), rng_seed=4)
              for _ in range(2)]
    if clouds[0].points.tobytes() != clouds[1].points.tobytes():
        problems.append("scene generation")

    normals = [estimate_normals(c) for c in clouds]
    if normals[0].normals.tobytes() != normals[1].normals.tobytes():
        problems.append("normal estimation")

    pcc = [run_pcc(n, obj.model_matrix, PccConfig(rng_seed=4)) for n in normals]
    if (pcc[0][0].mapping != pcc[1][0].mapping
            or not np.array_equal(assignment(pcc[0][1], len(normals[0])),
                                   assignment(pcc[1][1], len(normals[1])))):
        problems.append("clustering")

    fits = []
    for (sol, clustering), cloud in zip(pcc, normals):
        groups = solution_groups(sol, clustering)
        from mme.mcransac import restrict_constraints
        sub = restrict_constraints(obj.model_matrix, sol)
        fits.append(run_mcransac(groups, cloud, sub,
                                 McRansacConfig(iterations=8, min_eval_fraction=0.2,
                                                rng_seed=4)))
    if any(p.normal.tobytes() != q.normal.tobytes()
           or not np.array_equal(p.inliers, q.inliers)
           for p, q in zip(fits[0].planes, fits[1].planes)):
        problems.append("constrained fitting")

    from mme.baselines import RansacConfig, clustered_ransac, iterative_ransac
    groups = solution_groups(pcc[0][0], pcc[0][1])
    base = [clustered_ransac(groups, normals[0],
                             RansacConfig(iterations=4, rng_seed=4)) for _ in range(2)]
    if any(p.normal.tobytes() != q.normal.tobytes() for p, q in zip(*base)):
        problems.append("clustered baseline")
    its = [iterative_ransac(normals[0], RansacConfig(iterations=4, rng_seed=4,
                                                     distance_threshold=0.02))
           for _ in range(2)]
    if len(its[0]) != len(its[1]) or any(
            p.normal.tobytes() != q.normal.tobytes() for p, q in zip(*its)):
        problems.append("iterative baseline")

    synth_paths = [tmp_path / "a.xyz", tmp_path / "b.xyz"]
    for p in synth_paths:
        assert main(["synth", "--object", "cube", "--sigma", "1e-5", "--seed", "6",
                     "-o", str(p)]) == EXIT_OK
    if synth_paths[0].read_bytes() != synth_paths[1].read_bytes():
        problems.append("cli synth")
    capsys.readouterr()

    fit_outputs = []
    for _ in range(2):
        code = main(["fit", "--cloud", str(synth_paths[0]),
                     "--constraints", str(synth_paths[0].with_suffix(".constraints")),
                     "--iterations", "10", "--seed", "6"])
        out = capsys.readouterr().out
        fit_outputs.append((code, out))
    if fit_outputs[0] != fit_outputs[1] or fit_outputs[0][0] != EXIT_OK:
        problems.append("cli fit")

    bench_paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    for p in bench_paths:
        assert main(["bench", "--methods", "iterative", "--objects", "cube",
                     "--sigmas", "1e-5", "--views", "1", "--repeats", "1",
                     "--seed", "6", "--no-timing", "-o", str(p)]) == EXIT_OK
        capsys.readouterr()
    if bench_paths[0].read_bytes() != bench_paths[1].read_bytes():
        problems.append("cli bench")

    ok = not problems
    assert report("criterion 8", ok,
                  "all stages byte-identical" if ok else f"differs: {problems}")


def test_criterion_09_fit_optimality_and_equivariance():
    rng = np.random.default_rng(99)
    beaten = 0
    for _ in range(50):
        pts = planar_cloud(rng, 40, rng.normal(size=3), offset=rng.normal(),
                           jitter=0.05)
        plane = fit_plane_lsq(pts)
        fitted = float(((pts @ plane.normal - plane.offset) ** 2).sum())
        centroid = pts.mean(axis=0)
        dirs = rng.normal(size=(1000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sse = ((pts @ dirs.T - dirs @ centroid) ** 2).sum(axis=0)
        beaten += fitted <= float(sse.min()) + 1e-12

    worst_angle = 0.0
    for _ in range(20):
        pts = planar_cloud(rng, 50, rng.normal(size=3), jitter=0.02)
        rot = random_rotation(rng)
        before = fit_plane_lsq(pts)
        after = fit_plane_lsq(pts @ rot.T + rng.normal(size=3))
        moved = rot @ before.normal
        worst_angle = max(worst_angle, float(np.degrees(np.arctan2(
            np.linalg.norm(np.cross(after.normal, moved)),
            abs(float(after.normal @ moved))))))

    ok = beaten == 50 and worst_angle < 1e-6
    assert report("criterion 9", ok,
                  f"optimal_on={beaten}/50 clouds, worst equivariance "
                  f"angle={worst_angle:.2e}deg")


def test_criterion_10_failure_feedback(tmp_path, capsys):
    model = ConstraintMatrix(np.array([[0.0, 90.0], [90.0, 0.0]]))
    errors = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        left = planar_cloud(rng, 50, [0.0, 0.0, 1.0], jitter=0.002) - [1.0, 0.0, 0.0]
        right = planar_cloud(rng, 50, [0.0, 0.0, 1.0], jitter=0.002) + [1.0, 0.0, 0.0]
        cloud = PointCloud(np.vstack([left, right]))
        try:
            run_mcransac([np.arange(50), np.arange(50, 100)], cloud, model,
                         McRansacConfig(iterations=25, rng_seed=seed))
        except NoSatisfyingFit:
            errors += 1

    # the same feedback surfaces as exit code 2 at the command line
    cloud_path = tmp_path / "cube.xyz"
    assert main(["synth", "--object", "cube", "--seed", "1",
                 "-o", str(cloud_path)]) == EXIT_OK
    wrong = tmp_path / "wedge.constraints"
    wrong.write_text("2\n0 80\n80 0\n")
    code = main(["fit", "--cloud", str(cloud_path), "--constraints", str(wrong),
                 "--seed", "1"])
    capsys.readouterr()

    ok = errors >= 95 and code == EXIT_NO_FIT
    assert report("criterion 10", ok,
                  f"error_status={errors}/100 runs, cli exit={code}")
