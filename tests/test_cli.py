"""Command-line interface: argument handling, exit codes, file outputs."""

from __future__ import annotations

import numpy as np
import pytest

from mme import bench
from mme.cli import EXIT_INVALID, EXIT_NO_FIT, EXIT_OK, main
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

    def test_clustered_needs_labels(self, cube_files, tmp_path, capsys):
        cloud_path, constraints = cube_files
        cloud = read_cloud(cloud_path)
        stripped = tmp_path / "unlabelled.xyz"
        from mme.synth import write_cloud
        from mme.geometry import PointCloud
        write_cloud(stripped, PointCloud(cloud.points))
        code = run("fit", "--cloud", str(stripped), "--constraints", str(constraints),
                   "--method", "clustered")
        assert code == EXIT_INVALID
        assert "label" in capsys.readouterr().err

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
        files = dict(zip(("cloud", "constraints"), map(str, cube_files)))
        files[missing] = str(tmp_path / "absent")
        capsys.readouterr()
        code = run("fit", "--cloud", files["cloud"], "--constraints", files["constraints"])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read {missing} "), err

    def test_no_admissible_assignment_exits_two(self, cube_files, capsys, monkeypatch):
        # mme fit reaches the clustering through bench.pcc_stage
        def no_solution(*args, **kwargs):
            raise NoSolution("forced by the test")

        monkeypatch.setattr(bench, "run_pcc", no_solution)
        cloud, constraints = cube_files
        capsys.readouterr()
        code = run("fit", "--cloud", str(cloud), "--constraints", str(constraints))
        assert code == EXIT_NO_FIT
        assert capsys.readouterr().err == "no admissible assignment: forced by the test\n"


class TestConfigAndSeed:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("# comment\nsigma = 1e-5\nseed = 4\n")
        out1 = tmp_path / "one.xyz"
        out2 = tmp_path / "two.xyz"
        assert run("synth", "--object", "cube", "--config", str(cfg),
                   "-o", str(out1)) == EXIT_OK
        assert run("synth", "--object", "cube", "--sigma", "1e-5", "--seed", "4",
                   "-o", str(out2)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("seed = 4\n")
        flagged = tmp_path / "flagged.xyz"
        plain = tmp_path / "plain.xyz"
        assert run("synth", "--object", "cube", "--sigma", "1e-5", "--config",
                   str(cfg), "--seed", "8", "-o", str(flagged)) == EXIT_OK
        assert run("synth", "--object", "cube", "--sigma", "1e-5", "--seed", "8",
                   "-o", str(plain)) == EXIT_OK
        assert flagged.read_bytes() == plain.read_bytes()

    def test_explicit_flag_equal_to_default_beats_config(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("sigma = 4e-5\n")
        flagged = tmp_path / "flagged.xyz"
        plain = tmp_path / "plain.xyz"
        assert run("synth", "--object", "cube", "--sigma", "0", "--config", str(cfg),
                   "--seed", "3", "-o", str(flagged)) == EXIT_OK
        assert run("synth", "--object", "cube", "--sigma", "0", "--seed", "3",
                   "-o", str(plain)) == EXIT_OK
        assert flagged.read_bytes() == plain.read_bytes()

    def test_config_value_outside_choices(self, cube_files, tmp_path, capsys):
        cloud, constraints = cube_files
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("method = bogus\n")
        capsys.readouterr()
        code = run("fit", "--cloud", str(cloud), "--constraints", str(constraints),
                   "--config", str(cfg))
        assert code == EXIT_INVALID
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "bogus" in err[0]

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("sima = 1e-5\n")
        code = run("synth", "--object", "cube", "--config", str(cfg),
                   "-o", str(tmp_path / "x.xyz"))
        assert code == EXIT_INVALID
        assert "sima" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("sigma 1e-5\n")
        code = run("synth", "--object", "cube", "--config", str(cfg),
                   "-o", str(tmp_path / "x.xyz"))
        assert code == EXIT_INVALID
        assert ":1:" in capsys.readouterr().err

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        env_out = tmp_path / "env.xyz"
        flag_out = tmp_path / "flag.xyz"
        monkeypatch.setenv("MME_SEED", "31")
        assert run("synth", "--object", "cube", "--sigma", "1e-5",
                   "-o", str(env_out)) == EXIT_OK
        monkeypatch.delenv("MME_SEED")
        assert run("synth", "--object", "cube", "--sigma", "1e-5", "--seed", "31",
                   "-o", str(flag_out)) == EXIT_OK
        assert env_out.read_bytes() == flag_out.read_bytes()

    def test_invalid_seed_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MME_SEED", "not-a-number")
        code = run("synth", "--object", "cube", "-o", str(tmp_path / "x.xyz"))
        assert code == EXIT_INVALID


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

    def expect_one_error_line(self, code, capsys):
        assert code == EXIT_INVALID
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("flags", [
        ("--sample-size", "2"),
        ("--iterations", "0"),
        ("--k-neighbors", "2"),
        ("--tolerance", "-1"),
        ("--seed", "-1"),
        ("--pcc-tolerance", "-1"),
        ("--method", "iterative", "--distance-threshold", "-1"),
        ("--tolerance", "nan"),
        ("--pcc-tolerance", "nan"),
        ("--tolerance", "inf"),
        ("--pcc-tolerance", "inf"),
        ("--method", "iterative", "--distance-threshold", "inf"),
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

    @pytest.mark.parametrize("flags", [("--view", "9"), ("--sigma", "-1")])
    def test_synth(self, tmp_path, capsys, flags):
        out = tmp_path / "x.xyz"
        code = run("synth", "--object", "cube", *flags, "-o", str(out))
        self.expect_one_error_line(code, capsys)
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
    ])
    def test_bench_checks_before_the_sweep(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        code = run("bench", "--methods", "iterative", *flags, "-o", str(out))
        self.expect_one_error_line(code, capsys)
        assert not out.exists()

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

    def test_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("view = 9\n")
        code = run("synth", "--object", "cube", "--config", str(cfg),
                   "-o", str(tmp_path / "x.xyz"))
        self.expect_one_error_line(code, capsys)

    @pytest.mark.parametrize("argv", [
        ("synth", "--object", "teapot", "-o", "x.xyz"),  # invalid choice
        ("fit", "--cloud", "a", "--constraints", "b", "--iterations", "x"),  # malformed int
        ("synth", "--object", "cube"),  # missing required flag
    ])
    def test_argparse_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run(*argv)
        self.expect_one_error_line(err.value.code, capsys)


class TestParser:
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
