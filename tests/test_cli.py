"""Command-line interface: argument handling, exit codes, file outputs."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from mme import bench
from mme.baselines import RansacConfig
from mme.cli import EXIT_INVALID, EXIT_NO_FIT, EXIT_OK, build_parser, main
from mme.geometry import pair_angles
from mme.mcransac import McRansacConfig
from mme.pcc import NoSolution
from mme.synth import read_cloud


def run(*argv):
    return main(list(argv))


@pytest.fixture
def cube_files(tmp_path):
    out = tmp_path / "cube.xyz"
    code = run("synth", "--object", "cube", "--view", "2", "--sigma", "0",
               "--seed", "5", "-o", str(out))
    assert code == EXIT_OK
    return out, out.with_suffix(".constraints")


def synth_files(tmp_path, name: str, view: int, seed: int = 7,
                sigma: str = "4e-5") -> list[str]:
    """The fit flags for a view of a built-in object, at README's noise
    unless a sigma is given."""
    out = tmp_path / f"{name}_{view}.xyz"
    assert run("synth", "--object", name, "--view", str(view), "--sigma", sigma,
               "--seed", str(seed), "-o", str(out)) == EXIT_OK
    return ["--cloud", str(out), "--constraints", str(out.with_suffix(".constraints"))]


def fit_output(out: str) -> tuple[float, list[np.ndarray]]:
    """The gamma and the plane normals that `mme fit` printed."""
    lines = out.splitlines()
    gamma = float(lines[0].split("gamma=")[1].split()[0])
    normals = [np.array(l.split("normal=(")[1].split(")")[0].split(","), dtype=float)
               for l in lines[1:] if l.startswith("# plane")]
    return gamma, normals


# the one copy of each pinned `mme fit` stdout, which CI also runs on the
# installed package: README's quick-start cube by each method, and two
# double-pyramid fits whose obtuse model entries are checked on oriented
# normals; view 1, at sigma 6e-5, wins with a fit that reverts growth
# candidates.  `TestFit` checks the first line and the `# plane` lines of
# each, which together are the whole stdout
QUICK_START = pytest.mark.parametrize("name, view, sigma, flags, stdout", [
    ("cube", 2, "4e-5", (), """\
planes=3 gamma=0.075500 rho=0.062830 inliers=3380/3380
# plane 0: normal=(0.767048294,0.367858229,0.525658861) offset=1.07716591 inliers=950
# plane 1: normal=(0.643756543,-0.438996804,-0.626784907) offset=-1.37985582 inliers=1299
# plane 2: normal=(0.000689405761,0.81960703,-0.572925685) offset=-1.21922824 inliers=1131
"""),
    ("cube", 2, "4e-5", ("--method", "clustered"), """\
planes=3 gamma=0.166537 rho=0.093660 inliers=411/3380
# plane 0: normal=(0.766803379,0.368209611,0.525770158) offset=1.07677243 inliers=143
# plane 1: normal=(0.64560202,-0.437873116,-0.625671772) offset=-1.37534228 inliers=134
# plane 2: normal=(-0.00189541424,0.817722517,-0.575609497) offset=-1.22834246 inliers=134
"""),
    ("cube", 2, "4e-5", ("--method", "iterative", "--distance-threshold", "0.02"), """\
planes=3 gamma=0.103025 rho=0.066007 inliers=3327/3380
# plane 0: normal=(-0.000118292492,0.818000722,-0.575217181) offset=-1.22684392 inliers=1164
# plane 1: normal=(0.644385051,-0.439493627,-0.625790106) offset=-1.37663421 inliers=1251
# plane 2: normal=(0.766761672,0.367845218,0.526085957) offset=1.07854861 inliers=912
"""),
    ("double_pyramid", 1, "6e-5", (), """\
planes=4 gamma=0.479828 rho=0.442305 inliers=1980/2289
# plane 0: normal=(0.00188581855,0.93944639,-0.342690711) offset=-0.529884308 inliers=521
# plane 1: normal=(0.25422895,0.89469469,0.36727245) offset=1.1081824 inliers=494
# plane 2: normal=(0.267803125,-0.450974941,0.851412408) offset=2.55783988 inliers=555
# plane 3: normal=(0.655356779,0.573300201,-0.491766584) offset=-1.47602196 inliers=410
"""),
    ("double_pyramid", 2, "4e-5", (), """\
planes=4 gamma=0.237839 rho=0.161588 inliers=2291/2291
# plane 0: normal=(-0.00134808572,0.939307326,-0.343074233) offset=-0.530818696 inliers=519
# plane 1: normal=(-0.257874583,0.891961483,0.371356181) offset=1.11758292 inliers=499
# plane 2: normal=(-0.275851533,-0.442418921,0.853329614) offset=2.55919755 inliers=853
# plane 3: normal=(0.650403508,-0.577933847,0.492917584) offset=1.48187341 inliers=420
"""),
], ids=["mme", "clustered", "iterative", "double_pyramid-view1", "double_pyramid-view2"])


class TestSynth:
    def test_writes_cloud_and_constraints(self, cube_files, capsys):
        cloud_path, constraints_path = cube_files
        assert cloud_path.exists() and constraints_path.exists()
        cloud = read_cloud(cloud_path)
        assert len(cloud) > 1000
        assert cloud.labels is not None

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.xyz"
        b = tmp_path / "b.xyz"
        for path in (a, b):
            assert run("synth", "--object", "pyramid", "--sigma", "1e-5",
                       "--seed", "9", "-o", str(path)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".constraints").read_bytes() == \
            b.with_suffix(".constraints").read_bytes()

    def test_seed_environment_is_ignored(self, tmp_path, monkeypatch):
        # the seed comes only from --seed; the environment is not read
        plain = tmp_path / "plain.xyz"
        env = tmp_path / "env.xyz"
        assert run("synth", "--object", "cube", "--sigma", "1e-5",
                   "-o", str(plain)) == EXIT_OK
        monkeypatch.setenv("MME_SEED", "31")
        assert run("synth", "--object", "cube", "--sigma", "1e-5",
                   "-o", str(env)) == EXIT_OK
        assert env.read_bytes() == plain.read_bytes()

    def test_unknown_object_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("synth", "--object", "teapot", "-o", str(tmp_path / "t.xyz"))
        assert err.value.code == EXIT_INVALID


class TestFit:
    def test_constrained_fit_succeeds(self, cube_files, capsys):
        cloud, constraints = cube_files
        code = run("fit", "--cloud", str(cloud), "--constraints", str(constraints),
                   "--seed", "3")
        out = capsys.readouterr().out
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header.startswith("planes=3 gamma=")
        gamma = float(header.split("gamma=")[1].split()[0])
        assert gamma < 2.0
        assert sum(1 for l in out.splitlines() if l.startswith("# plane")) == 3

    def test_baseline_methods_run(self, cube_files, capsys):
        cloud, constraints = cube_files
        for method in ("clustered", "iterative"):
            code = run("fit", "--cloud", str(cloud), "--constraints", str(constraints),
                       "--method", method, "--seed", "3")
            assert code == EXIT_OK
            assert "planes=" in capsys.readouterr().out

    def test_mismatched_model_exits_two(self, cube_files, tmp_path, capsys):
        # a cube view fitted against a wedge model: the cluster assignment
        # may pass, but no plane set can satisfy the wrong angles
        cloud, _ = cube_files
        wrong = tmp_path / "wrong.constraints"
        wrong.write_text("2\n0 80\n80 0\n")
        code = run("fit", "--cloud", str(cloud), "--constraints", str(wrong),
                   "--seed", "3")
        assert code == EXIT_NO_FIT
        assert capsys.readouterr().err != ""

    def test_clustered_fits_an_unlabelled_cloud(self, tmp_path, capsys):
        # clustered RANSAC fits the PCC groups, so it needs no label column:
        # README's cube without its comments and labels, as
        # `grep -v '^#' | cut -d' ' -f1-3` leaves it, prints what the
        # labelled cloud prints, byte for byte
        _, labelled, _, constraints = synth_files(tmp_path, "cube", 2)
        bare = tmp_path / "bare.xyz"
        bare.write_text("".join(" ".join(line.split(" ")[:3]) + "\n"
                                for line in Path(labelled).read_text().splitlines()
                                if not line.startswith("#")))
        stdout = []
        for cloud in (labelled, str(bare)):
            capsys.readouterr()
            assert run("fit", "--cloud", cloud, "--constraints", constraints,
                       "--method", "clustered", "--seed", "7") == EXIT_OK
            stdout.append(capsys.readouterr().out)
        assert stdout[0].startswith("planes=3 ") and stdout[1] == stdout[0]

    def test_iterative_planes_are_mapped_one_per_face(self, tmp_path, capsys):
        # greedy extraction puts two planes on one face of this view; the
        # assignment keeps the larger one and scores it against its own row
        files = synth_files(tmp_path, "cube", 1)
        capsys.readouterr()
        code = run("fit", *files, "--method", "iterative", "--distance-threshold", "0.02",
                   "--seed", "7")
        assert code == EXIT_OK
        gamma, normals = fit_output(capsys.readouterr().out)
        assert gamma < 2.0
        angles = pair_angles(normals)
        folded = np.minimum(angles, 180.0 - angles)
        assert len(normals) >= 2 and folded.min() > 10.0, folded

    @QUICK_START
    def test_quick_start_first_line(self, tmp_path, capsys, name, view, sigma, flags,
                                    stdout):
        files = synth_files(tmp_path, name, view, sigma=sigma)
        capsys.readouterr()
        assert run("fit", *files, "--seed", "7", *flags) == EXIT_OK
        assert capsys.readouterr().out.partition("\n")[:2] == stdout.partition("\n")[:2]

    @QUICK_START
    def test_quick_start_every_plane_line(self, tmp_path, capsys, name, view, sigma,
                                          flags, stdout):
        # the `# plane` lines carry each fitted normal with the plane fit's
        # canonical sign
        files = synth_files(tmp_path, name, view, sigma=sigma)
        capsys.readouterr()
        assert run("fit", *files, "--seed", "7", *flags) == EXIT_OK
        assert capsys.readouterr().out.partition("\n")[2] == stdout.partition("\n")[2]

    @pytest.mark.parametrize("view", range(1, 9))
    def test_defaults_fit_every_double_pyramid_view(self, tmp_path, capsys, view):
        # with a fixed sample of 3 points per plane, 7 of these 8 views
        # ended in no_fit; the pair-count rule draws 4-8.  Each view gets its
        # own seed: under one seed the odd views render one cloud and the
        # even views another
        files = synth_files(tmp_path, "double_pyramid", view, seed=view)
        capsys.readouterr()
        assert run("fit", *files, "--seed", str(view)) == EXIT_OK
        assert capsys.readouterr().out.startswith("planes=")

    def test_clustered_scores_a_partial_mapping(self, tmp_path, capsys):
        # four of the double pyramid's model planes are mapped on this view
        files = synth_files(tmp_path, "double_pyramid", 1)
        capsys.readouterr()
        assert run("fit", *files, "--method", "clustered", "--seed", "7") == EXIT_OK
        gamma, _ = fit_output(capsys.readouterr().out)
        assert np.isfinite(gamma)

    def test_malformed_constraints_exit_one_with_line(self, cube_files, tmp_path, capsys):
        cloud, _ = cube_files
        bad = tmp_path / "bad.constraints"
        bad.write_text("2\n0 80\n80 nope\n")
        code = run("fit", "--cloud", str(cloud), "--constraints", str(bad))
        assert code == EXIT_INVALID
        assert "line 3" in capsys.readouterr().err

    def test_malformed_cloud_exits_one(self, tmp_path, cube_files, capsys):
        _, constraints = cube_files
        bad = tmp_path / "bad.xyz"
        bad.write_text("1 2\n")
        code = run("fit", "--cloud", str(bad), "--constraints", str(constraints))
        assert code == EXIT_INVALID

    def test_cloud_short_of_its_header_exits_one(self, tmp_path, cube_files, capsys):
        cloud, constraints = cube_files
        lines = cloud.read_text().splitlines()
        bad = tmp_path / "bad.xyz"
        bad.write_text("".join(line.split(" ", 1)[1] + "\n" if not line.startswith("#")
                               else line + "\n" for line in lines))
        capsys.readouterr()
        code = run("fit", "--cloud", str(bad), "--constraints", str(constraints))
        assert code == EXIT_INVALID
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert err[0].endswith("line 3: expected 4 columns (header: x y z label)"), err

    def test_rows_after_the_matrix_exit_one_with_line(self, cube_files, tmp_path, capsys):
        cloud, constraints = cube_files
        bad = tmp_path / "long.constraints"
        bad.write_text(constraints.read_text() + "1 2 3\nfoo bar\n")
        capsys.readouterr()
        code = run("fit", "--cloud", str(cloud), "--constraints", str(bad))
        assert code == EXIT_INVALID
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "line 8: unexpected data after the 3 matrix rows" in err[0], err

    def test_missing_file_exits_one(self, cube_files, capsys):
        _, constraints = cube_files
        code = run("fit", "--cloud", "/nonexistent.xyz", "--constraints",
                   str(constraints))
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("missing", ["cloud", "constraints"])
    def test_unreadable_file_is_named(self, cube_files, tmp_path, capsys, missing):
        # an absent file, and one that is not UTF-8 text
        undecodable = tmp_path / "undecodable"
        undecodable.write_bytes(b"\xff\xfe2\n")
        for path in (tmp_path / "absent", undecodable):
            files = dict(zip(("cloud", "constraints"), map(str, cube_files)))
            files[missing] = str(path)
            capsys.readouterr()
            code = run("fit", "--cloud", files["cloud"], "--constraints", files["constraints"])
            assert code == EXIT_INVALID
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: cannot read {missing} {path}: "), err

    def test_no_admissible_assignment_exits_two(self, cube_files, capsys, monkeypatch):
        # mme fit reaches the clustering through bench.fit_method
        def no_solution(*args, **kwargs):
            raise NoSolution("forced by the test")

        monkeypatch.setattr(bench, "run_pcc", no_solution)
        cloud, constraints = cube_files
        capsys.readouterr()
        code = run("fit", "--cloud", str(cloud), "--constraints", str(constraints))
        assert code == EXIT_NO_FIT
        assert capsys.readouterr().err == "no admissible assignment: forced by the test\n"


class TestBench:
    def test_tiny_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = run("bench", "--methods", "mme,iterative", "--objects", "pyramid",
                   "--sigmas", "0,1e-5", "--views", "1", "--repeats", "1",
                   "--seed", "0", "--no-timing", "-o", str(out))
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 1 * 2 * 1 * 1
        assert lines[0].startswith("method,object,sigma")
        summary = out.with_suffix(".summary.csv")
        assert summary.exists()
        assert len(summary.read_text().strip().split("\n")) == 1 + 4

    def test_no_timing_is_byte_reproducible(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert run("bench", "--methods", "iterative", "--objects", "cube",
                       "--sigmas", "1e-5", "--views", "1", "--repeats", "2",
                       "--seed", "7", "--no-timing", "-o", str(path)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_bad_method_and_sigma(self, tmp_path, capsys):
        assert run("bench", "--methods", "sorcery", "-o",
                   str(tmp_path / "x.csv")) == EXIT_INVALID
        assert run("bench", "--sigmas", "-1", "-o",
                   str(tmp_path / "y.csv")) == EXIT_INVALID


class TestBadArguments:
    """A rejected parameter ends in exit 1 and one error line, before any work."""

    def expect_one_error_line(self, code, capsys, flag=""):
        """Exit 1 and one error line, which names flag when one is given."""
        assert code == EXIT_INVALID
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag}"), err

    @pytest.mark.parametrize("flags", [
        ("--iterations", "0"),
        ("--seed", "-1"),
        ("--method", "iterative", "--distance-threshold", "-1"),
        ("--iterations", "-1"),
        # the baselines build their own config from the same flags
        ("--method", "clustered", "--iterations", "0"),
        ("--method", "iterative", "--iterations", "0"),
        ("--method", "clustered", "--distance-threshold", "0"),
        ("--method", "iterative", "--distance-threshold", "nan"),
        ("--method", "clustered", "--distance-threshold", "nan"),
        ("--method", "clustered", "--distance-threshold", "inf"),
        ("--method", "iterative", "--seed", "-1"),
        ("--method", "iterative", "--distance-threshold", "inf"),
        ("--method", "clustered", "--distance-threshold", "-1"),
        # mme does not use the inlier distance, but checks it as the baselines do
        ("--distance-threshold", "-1"),
        ("--distance-threshold", "0"),
        ("--distance-threshold", "nan"),
        ("--distance-threshold", "inf"),
    ])
    def test_fit(self, cube_files, capsys, flags):
        cloud, constraints = cube_files
        capsys.readouterr()
        code = run("fit", "--cloud", str(cloud), "--constraints", str(constraints), *flags)
        self.expect_one_error_line(code, capsys)

    @pytest.mark.parametrize("method", ["mme", "iterative"])
    def test_huge_coordinates(self, cube_files, tmp_path, capsys, method):
        # squared distances of a view scaled by 1e300 overflow; the cloud
        # is rejected on read, before normals or a plane fit see it
        cloud_path, constraints = cube_files
        cloud = read_cloud(cloud_path)
        big = tmp_path / "big.xyz"
        np.savetxt(big, np.column_stack([cloud.points * 1e300, cloud.labels]))
        capsys.readouterr()
        code = run("fit", "--cloud", str(big), "--constraints", str(constraints),
                   "--method", method)
        self.expect_one_error_line(code, capsys)

    def test_cloud_too_small_for_a_sample(self, cube_files, tmp_path, capsys):
        # two points cannot seed the iterative baseline's sample of 3
        _, constraints = cube_files
        tiny = tmp_path / "tiny.xyz"
        tiny.write_text("0 0 1\n1 0 1\n")
        capsys.readouterr()
        code = run("fit", "--cloud", str(tiny), "--constraints", str(constraints),
                   "--method", "iterative")
        self.expect_one_error_line(code, capsys)

    @pytest.mark.parametrize("flags", [("--view", "9"), ("--sigma", "-1"), ("--view", "0")])
    def test_synth(self, tmp_path, capsys, flags):
        out = tmp_path / "x.xyz"
        code = run("synth", "--object", "cube", *flags, "-o", str(out))
        self.expect_one_error_line(code, capsys, flags[0])
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("synth", ("--object", "cube", "--sigma", "inf")),
        ("synth", ("--object", "cube", "--sigma", "nan")),
        ("bench", ("--methods", "iterative", "--sigmas", "0,nan")),
        ("bench", ("--methods", "iterative", "--sigmas", "1e-5,inf")),
    ])
    def test_non_finite_sigma(self, tmp_path, capsys, command, flags):
        out = tmp_path / "x.out"
        capsys.readouterr()
        code = run(command, *flags, "-o", str(out))
        assert code == EXIT_INVALID
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "sigma" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--views", "9"),
        ("--objects", "cube,teapot"),
        ("--sigmas", "0,x"),
        ("--repeats", "0"),
        ("--methods", ""),
        ("--objects", ""),
        ("--sigmas", ""),
        ("--methods", "iterative,iterative"),
        ("--objects", "cube,cube"),
        ("--sigmas", "0,0.0"),
        ("--sigmas", "1e-5,0,0.00001"),
        ("--views", "0"),
        ("--sigmas", "0,-1"),
        ("--methods", "iterative,ransac"),
    ])
    def test_bench_checks_before_the_sweep(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        code = run("bench", "--methods", "iterative", *flags, "-o", str(out))
        self.expect_one_error_line(code, capsys, flags[0])
        assert not out.exists()

    @pytest.mark.parametrize("name", ["cube.constraints", "cube.Constraints"])
    def test_synth_output_named_like_its_constraints(self, tmp_path, capsys, name):
        # the cloud and its NAME.constraints sibling would be one file
        code = run("synth", "--object", "cube", "-o", str(tmp_path / name))
        self.expect_one_error_line(code, capsys)
        assert not any(tmp_path.iterdir())

    def test_unwritable_synth_output(self, tmp_path, capsys):
        out = tmp_path / "absent" / "x.xyz"
        code = run("synth", "--object", "cube", "-o", str(out))
        self.expect_one_error_line(code, capsys)

    def test_unwritable_bench_output_fails_before_the_sweep(self, tmp_path, capsys,
                                                           monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("mme.cli.run_experiment", no_sweep)
        out = tmp_path / "absent" / "r.csv"
        code = run("bench", "--methods", "iterative", "--objects", "cube", "--views", "1",
                   "--repeats", "1", "--sigmas", "0", "-o", str(out))
        self.expect_one_error_line(code, capsys)

    @pytest.mark.parametrize("argv", [
        ("synth", "--object", "teapot", "-o", "x.xyz"),  # invalid choice
        ("fit", "--cloud", "a", "--constraints", "b", "--iterations", "x"),  # malformed int
        ("synth", "--object", "cube"),  # missing required flag
        ("synth", "--object", "cube", "--config", "x.cfg", "-o", "x.xyz"),  # removed flag
        # removed fit flags, each with a value it once took
        ("fit", "--cloud", "a", "--constraints", "b", "--sample-size", "3"),
        ("fit", "--cloud", "a", "--constraints", "b", "--tolerance", "3"),
        ("fit", "--cloud", "a", "--constraints", "b", "--pcc-tolerance", "10"),
        ("fit", "--cloud", "a", "--constraints", "b", "--k-neighbors", "15"),
    ])
    def test_argparse_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run(*argv)
        self.expect_one_error_line(err.value.code, capsys)


class TestParser:
    def test_fit_defaults_are_the_config_defaults(self):
        fit = build_parser().parse_args(["fit", "--cloud", "a", "--constraints", "b"])
        mcr, ransac = McRansacConfig(), RansacConfig()
        assert fit.iterations == mcr.iterations
        assert fit.distance_threshold == ransac.distance_threshold
        # --iterations feeds whichever config the method uses
        assert ransac.iterations == mcr.iterations

    def test_fit_flags(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("fit", "--help")
        assert err.value.code == 0
        assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out)) == {
            "--help", "--seed", "--cloud", "--constraints", "--method", "--iterations",
            "--distance-threshold"}

    @pytest.mark.parametrize("argv", [
        ["synth", "--object", "cube", "-o", "x.xyz"],
        ["fit", "--cloud", "a", "--constraints", "b"],
        ["bench", "-o", "x.csv"],
    ])
    def test_seed_defaults_to_zero(self, argv):
        assert build_parser().parse_args(argv).seed == 0

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("--version")
        assert err.value.code == 0
        assert "mme" in capsys.readouterr().out

    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("synth", "--object", "cube")  # no --output
        assert err.value.code == EXIT_INVALID

    def test_closed_stdout_exits_zero_without_a_traceback(self, tmp_path):
        # stdout is a pipe whose read end is already closed, so the first
        # write to it fails with EPIPE, as after `mme ... | head -1` exits
        import os
        import subprocess
        import sys
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run(
                [sys.executable, "-m", "mme.cli", "synth", "--object", "cube",
                 "-o", str(tmp_path / "m.xyz")],
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert res.returncode == EXIT_OK, res.stderr
        assert res.stderr == ""
        assert (tmp_path / "m.xyz").exists()

    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys
        res = subprocess.run(
            [sys.executable, "-m", "mme.cli", "synth", "--object", "cube",
             "-o", str(tmp_path / "m.xyz")],
            capture_output=True, text=True)
        assert res.returncode == EXIT_OK
        assert (tmp_path / "m.xyz").exists()
