"""Benchmark harness: error metrics, seeding, aggregation, CSV output."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracle
from conftest import own_normals, planar_cloud, skewed_planes
from mme import bench
from mme.bench import (
    CSV_HEADER,
    METHODS,
    SUMMARY_HEADER,
    CellResult,
    FitReport,
    _derive_seed,
    constraint_error,
    fit_method,
    results_csv,
    run_cell,
    run_experiment,
    summarize,
    summary_csv,
)
from mme.baselines import RansacConfig, clustered_ransac
from mme.geometry import DegenerateInput, angles, as_unit, fit_plane_lsq, fold
from mme.mcransac import McRansacConfig, NoSatisfyingFit, restrict_constraints
from mme.normals import estimate_normals
from mme.pcc import ConstraintMatrix, NoSolution, PccConfig, run_pcc, solution_groups
from mme.synth import NoiseSpec, generate_view, get_object, turntable_view


class TestConstraintError:
    RIGHT = ConstraintMatrix(90.0 * (1.0 - np.eye(3)))

    def test_reference_arithmetic(self):
        # pair angles 90, 88 and 91 against an all-90 model: deviations
        # {0, 2, 1}, mean exactly 1, population std sqrt(2/3)
        planes = skewed_planes(88.0, 91.0)
        gamma, rho = constraint_error(planes, self.RIGHT, own_normals(planes))
        assert abs(gamma - 1.0) <= 1e-12
        assert abs(rho - math.sqrt(2.0 / 3.0)) <= 1e-12

    def test_folds_like_the_constraint_check(self):
        # a 170 degree pair is 10 degrees apart orientation-free
        planes = skewed_planes(90.0, 170.0)[1:]
        gamma, rho = constraint_error(planes, ConstraintMatrix([[0.0, 10.0], [10.0, 0.0]]),
                                      own_normals(planes))
        assert gamma == pytest.approx(0.0, abs=1e-9) and rho == 0.0

    def test_length_mismatch(self):
        planes = skewed_planes(90.0, 90.0)[:2]
        with pytest.raises(ValueError, match="one plane per constraint row"):
            constraint_error(planes, self.RIGHT, own_normals(planes))

    def test_planes_against_matrix(self, rng):
        p = fit_plane_lsq(planar_cloud(rng, 30, [0.0, 0.0, 1.0]), np.arange(30))
        q = fit_plane_lsq(planar_cloud(rng, 30, [1.0, 0.0, 0.0], offset=1.0), np.arange(30))
        gamma, rho = constraint_error([p, q], ConstraintMatrix(
            np.array([[0.0, 88.0], [88.0, 0.0]])), own_normals([p, q]))
        assert gamma == pytest.approx(2.0, abs=1e-9)
        assert rho == pytest.approx(0.0, abs=1e-12)

    def test_obtuse_matrix_uses_references(self, rng):
        rad = np.radians(135.0)
        p = fit_plane_lsq(planar_cloud(rng, 30, [0.0, 0.0, 1.0]), np.arange(30))
        q = fit_plane_lsq(planar_cloud(rng, 30, [np.sin(rad), 0.0, np.cos(rad)],
                                       offset=1.0), np.arange(30))
        model = ConstraintMatrix(np.array([[0.0, 135.0], [135.0, 0.0]]))
        refs = np.array([[0.0, 0.0, 1.0], [np.sin(rad), 0.0, np.cos(rad)]])
        gamma, _ = constraint_error([p, q], model, refs)
        assert gamma == pytest.approx(0.0, abs=1e-9)

    def test_single_plane_is_zero(self, rng):
        p = fit_plane_lsq(planar_cloud(rng, 20, [0.0, 0.0, 1.0]), np.arange(20))
        assert constraint_error([p], ConstraintMatrix(np.array([[0.0]])),
                                own_normals([p])) == (0.0, 0.0)


class TestSeeding:
    def test_derive_seed_is_stable_and_distinct(self):
        a = _derive_seed(0, "cube", "1e-05", 1, 0)
        assert a == _derive_seed(0, "cube", "1e-05", 1, 0)
        assert a != _derive_seed(0, "cube", "1e-05", 1, 1)
        assert a != _derive_seed(1, "cube", "1e-05", 1, 0)
        assert a != _derive_seed(0, "cube", "1e-05", 1, 0, "mme")
        assert 0 <= a < 2 ** 64


class TestRunCell:
    @pytest.mark.parametrize("method", METHODS)
    def test_smoke_and_determinism(self, method):
        a = run_cell(method, "cube", 1e-5, view_index=1, repeat=0, seed=123)
        b = run_cell(method, "cube", 1e-5, view_index=1, repeat=0, seed=123)
        assert a.report.status == "ok"

        def same(x, y):
            return (math.isnan(x) and math.isnan(y)) or x == y

        assert same(a.report.gamma, b.report.gamma)
        assert same(a.report.rho, b.report.rho)
        assert same(a.report.inlier_ratio, b.report.inlier_ratio)
        assert same(a.report.orientation_error, b.report.orientation_error)
        assert a.report.plane_count == b.report.plane_count

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_cell("magic", "cube", 0.0, 1, 0, 0)

    def test_iterative_maps_at_most_the_model_planes(self):
        # greedy extraction leaves many planes on the two pyramid faces of
        # these views (14 in view 4, repeat 1); only the mapped ones count
        size = get_object("pyramid").model_matrix.size
        rows = run_experiment("iterative", ["pyramid"], [1e-5], views=8, repeats=3, seed=0)
        ok = [r.report for r in rows if r.report.status == "ok"]
        assert ok and all(1 <= rep.plane_count <= size for rep in ok), \
            [rep.plane_count for rep in ok]
        assert all(math.isfinite(rep.gamma) for rep in ok)


class TestFoldedAngles:
    """The folded plane-to-face angles against the hand-written loops they
    replace, bit for bit."""

    def scene(self, rng):
        gt = rng.normal(size=(6, 3))
        gt[4] = -gt[1]  # a face pair whose folded angles tie
        gt /= np.linalg.norm(gt, axis=1, keepdims=True)
        normals = rng.normal(size=(40, 3))
        normals[:6] = gt + 1e-8 * rng.normal(size=(6, 3))  # near-parallel
        normals[6:12] = -gt  # antiparallel
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        return normals, gt

    def test_orientation_error(self, rng):
        for _ in range(20):
            normals, gt = self.scene(rng)
            faces = rng.integers(0, len(gt), size=len(normals))
            assert float(np.mean(fold(angles(normals, gt[faces])))) == \
                oracle.orientation_error(normals, gt[faces])


class TestFitMethod:
    def test_matches_the_hand_written_front_end(self):
        obj = get_object("pyramid")
        raw = generate_view(obj, turntable_view(obj, 3), noise=NoiseSpec(0.0, 4e-5),
                            rng_seed=5)
        pcc_cfg, cfg = PccConfig(rng_seed=5), RansacConfig(rng_seed=5)
        fit = fit_method("clustered", raw, obj.model_matrix, cfg, pcc_cfg)
        cloud = estimate_normals(raw)
        solution, clustering = run_pcc(cloud, obj.model_matrix, pcc_cfg)
        expected = solution_groups(solution, clustering)
        assert len(fit.groups) == len(expected) > 1
        assert all(np.array_equal(g, e) for g, e in zip(fit.groups, expected))
        # the stored cluster mean normals, equal bit for bit to the group means
        assert np.array_equal(fit.reference_directions,
                              [as_unit(cloud.normals[g].mean(axis=0)) for g in fit.groups])
        assert np.array_equal(fit.model.entries,
                              restrict_constraints(obj.model_matrix, solution).entries)
        planes = clustered_ransac(expected, cloud, cfg)
        assert all(np.array_equal(p.normal, q.normal) and p.offset == q.offset
                   and np.array_equal(p.inliers, q.inliers)
                   for p, q in zip(fit.planes, planes, strict=True))

    @pytest.mark.parametrize("method", METHODS)
    def test_misspelled_option_is_refused(self, method):
        # an option fit_method does not take raises before any work starts,
        # for the methods that would ignore it as for the one it would reach
        obj = get_object("cube")
        raw = generate_view(obj, turntable_view(obj, 2), rng_seed=5)
        cfg = McRansacConfig() if method == "mme" else RansacConfig()
        with pytest.raises(TypeError, match="min_inlier_fractoin"):
            fit_method(method, raw, obj.model_matrix, cfg, PccConfig(),
                       min_inlier_fractoin=0.5)


def _raises(exc):
    def fail(*args, **kwargs):
        raise exc("forced by the test")
    return fail


class TestFailureRows:
    """Every failure a cell can meet gives one row: its status, the plane
    count known when it failed, NaN metrics and zero runtime."""

    CELL = ("cube", 1e-5, 1, 0, 123)

    def record_mapped(self, monkeypatch) -> list[int]:
        """Wrap run_pcc so the test sees how many model planes were mapped."""
        seen = []
        real = bench.run_pcc

        def recording(*args, **kwargs):
            solution, clustering = real(*args, **kwargs)
            seen.append(sum(c is not None for c in solution.mapping))
            return solution, clustering

        monkeypatch.setattr(bench, "run_pcc", recording)
        return seen

    def failed_row(self, method, status) -> FitReport:
        rep = run_cell(method, *self.CELL).report
        assert rep.status == status
        assert rep.runtime_ms == 0.0
        assert all(math.isnan(v) for v in
                   (rep.gamma, rep.rho, rep.inlier_ratio, rep.orientation_error))
        return rep

    @pytest.mark.parametrize("method", ["mme", "clustered"])
    @pytest.mark.parametrize("exc, status", [(NoSolution, "no_solution"),
                                             (DegenerateInput, "degenerate")])
    def test_clustering_failures_have_no_planes(self, monkeypatch, method, exc, status):
        monkeypatch.setattr(bench, "run_pcc", _raises(exc))
        assert self.failed_row(method, status).plane_count == 0

    @pytest.mark.parametrize("method, name, exc, status", [
        ("mme", "run_mcransac", NoSatisfyingFit, "no_fit"),
        ("mme", "run_mcransac", DegenerateInput, "degenerate"),
        ("clustered", "clustered_ransac", DegenerateInput, "degenerate"),
    ])
    def test_fit_failures_count_the_mapped_planes(self, monkeypatch, method, name, exc, status):
        seen = self.record_mapped(monkeypatch)
        monkeypatch.setattr(bench, name, _raises(exc))
        rep = self.failed_row(method, status)
        assert seen and seen[0] > 0
        assert rep.plane_count == seen[0]

    def test_constraint_violation_on_re_check(self, monkeypatch):
        seen = self.record_mapped(monkeypatch)
        monkeypatch.setattr(bench, "check_constraints", lambda *args: False)
        rep = self.failed_row("mme", "constraint_violation")
        assert seen and rep.plane_count == seen[0]

    def test_iterative_without_planes(self, monkeypatch):
        monkeypatch.setattr(bench, "iterative_ransac", lambda *args, **kwargs: [])
        assert self.failed_row("iterative", "degenerate").plane_count == 0

    def test_iterative_assignment_failure_has_no_planes(self, monkeypatch):
        monkeypatch.setattr(bench, "assign_clusters", _raises(NoSolution))
        assert self.failed_row("iterative", "no_solution").plane_count == 0


def fake_results():
    def rep(gamma, status="ok"):
        if status != "ok":
            return FitReport(float("nan"), float("nan"), 0, float("nan"),
                             float("nan"), 0.0, status)
        return FitReport(gamma, gamma / 2.0, 3, 0.9, gamma / 3.0, 12.0, "ok")

    return [
        CellResult("mme", "cube", 1e-5, 1, 0, rep(1.0)),
        CellResult("mme", "cube", 1e-5, 2, 0, rep(3.0)),
        CellResult("mme", "cube", 1e-5, 3, 0, rep(0.0, status="no_fit")),
        CellResult("clustered", "cube", 1e-5, 1, 0, rep(5.0)),
    ]


class TestAggregation:
    def test_summarize_means_and_failures(self):
        rows = summarize(fake_results())
        mme = next(r for r in rows if r["method"] == "mme")
        assert mme["cells"] == 3
        assert mme["failures"] == 1
        assert mme["mean_gamma"] == pytest.approx(2.0)
        clustered = next(r for r in rows if r["method"] == "clustered")
        assert clustered["failures"] == 0
        assert clustered["mean_gamma"] == pytest.approx(5.0)

    def test_summarize_is_order_independent(self):
        results = fake_results()
        shuffled = [results[i] for i in (3, 1, 0, 2)]
        assert summarize(results) == summarize(shuffled)

    def test_results_csv_shape_and_timing(self):
        results = fake_results()
        text = results_csv(results)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(results)
        assert ",12.000," in lines[1]
        frozen = results_csv(results, include_timing=False)
        assert ",0.000," in frozen.split("\n")[1]
        # sorted output: order of the input rows must not matter
        shuffled = [results[i] for i in (2, 0, 3, 1)]
        assert results_csv(shuffled) == text

    def test_failed_cells_serialize_as_nan(self):
        text = results_csv(fake_results())
        bad = [l for l in text.split("\n") if l.endswith("no_fit")]
        assert len(bad) == 1
        assert bad[0].split(",")[5] == "nan"

    def test_summary_csv_header(self):
        text = summary_csv(fake_results())
        assert text.startswith(SUMMARY_HEADER + "\n")
        assert len(text.strip().split("\n")) == 3
