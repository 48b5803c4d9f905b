"""Command-line interface: synthesize scenes, fit plane sets, run sweeps.

Exit codes: 0 on success, 1 on input/validation problems, 2 when a fit
terminates without a solution (no admissible cluster assignment, or no
hypothesis satisfying the constraints).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .baselines import RansacConfig
from .bench import (
    METHODS,
    NoPlaneFound,
    constraint_error,
    fit_method,
    results_csv,
    run_experiment,
    summary_csv,
)
from .geometry import DegenerateInput
from .mcransac import McRansacConfig, NoSatisfyingFit
from .pcc import NoSolution, PccConfig, read_constraint_matrix, write_constraint_matrix
from .synth import (
    NoiseSpec,
    builtin_objects,
    generate_view,
    get_object,
    read_cloud,
    turntable_view,
    write_cloud,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_FIT = 2


class CliError(Exception):
    """Input or validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 and a usage block on bad usage; we reserve 2
    for fit failures and report bad input as one line with exit 1."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _checked(build, *args, flag: str | None = None, **kwargs):
    """Call a config constructor or object lookup on user-supplied values;
    a rejected value (ValueError, or KeyError for an unknown name) becomes
    a CliError carrying the library's message, after the flag that gave
    the value when one did."""
    try:
        return build(*args, **kwargs)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else repr(exc)
        raise CliError(message if flag is None else f"{flag}: {message}") from exc


def _cmd_synth(args) -> int:
    obj = _checked(get_object, args.object)
    view = _checked(turntable_view, obj, args.view, flag="--view")
    noise = _checked(NoiseSpec, 0.0, args.sigma, flag="--sigma")
    out = Path(args.output)
    if out.suffix.lower() == ".constraints":
        raise CliError(f"-o {out}: the cloud would be overwritten by its constraint "
                       "matrix, which is written alongside as NAME.constraints")
    constraints_path = out.with_suffix(".constraints")
    cloud = generate_view(obj, view, noise=noise, rng_seed=args.seed)
    try:
        write_cloud(out, cloud, comments=(
            f"object={obj.name} view={view.view_index} azimuth={view.azimuth_deg:.9g} "
            f"elevation={view.elevation_deg:.9g} sigma={args.sigma:.9g} seed={args.seed}",))
        write_constraint_matrix(constraints_path, obj.model_matrix)
    except OSError as exc:
        raise CliError(f"cannot write {exc.filename}: {exc.strerror}") from exc
    print(f"wrote {len(cloud)} points to {out} ({constraints_path.name} alongside)")
    return EXIT_OK


def _load(read, path: str, noun: str):
    """Read one input file; a missing, undecodable or malformed file is a CliError."""
    try:
        return read(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {noun} {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _open_output(path: Path):
    """An output file opened for writing; an unwritable path is a CliError."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from exc


def _cmd_fit(args) -> int:
    seed = args.seed
    cfg = _checked(RansacConfig, iterations=args.iterations, rng_seed=seed, flag="--iterations")
    # every method checks --distance-threshold, though only the baselines use it
    cfg = _checked(replace, cfg, distance_threshold=args.distance_threshold,
                   flag="--distance-threshold")
    if args.method == "mme":
        cfg = _checked(McRansacConfig, iterations=args.iterations, rng_seed=seed,
                       flag="--iterations")
    cloud = _load(read_cloud, args.cloud, "cloud")
    constraints = _load(read_constraint_matrix, args.constraints, "constraints")

    try:
        fit = fit_method(args.method, cloud, constraints, cfg, PccConfig(rng_seed=seed))
    except NoPlaneFound as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_FIT
    except NoSolution as exc:
        print(f"no admissible assignment: {exc}", file=sys.stderr)
        return EXIT_NO_FIT
    except NoSatisfyingFit as exc:
        print(f"no constraint-satisfying fit: {exc}", file=sys.stderr)
        return EXIT_NO_FIT
    gamma, rho = constraint_error(fit.planes, fit.model, fit.reference_directions)
    inliers = sum(p.inliers.shape[0] for p in fit.planes)
    print(f"planes={len(fit.planes)} gamma={gamma:.6f} rho={rho:.6f} "
          f"inliers={inliers}/{len(cloud)}")
    for i, p in enumerate(fit.planes):
        n = p.normal
        print(f"# plane {i}: normal=({n[0]:.9g},{n[1]:.9g},{n[2]:.9g}) "
              f"offset={p.offset:.9g} inliers={p.inliers.shape[0]}")
    return EXIT_OK


def _comma_list(flag: str, text: str, parse=str) -> list:
    """The parsed items of a comma-list flag, which may be neither empty nor
    name one value twice (its cells would run, and count, twice)."""
    if not text:
        raise CliError(f"{flag} is empty")
    values = []
    for item in text.split(","):
        value = _checked(parse, item, flag=flag)
        if value in values:
            raise CliError(f"{flag} repeats {item!r}")
        values.append(value)
    return values


def _cmd_bench(args) -> int:
    # every argument is checked here, before the first cell runs
    methods = (list(METHODS) if args.methods is None
               else _comma_list("--methods", args.methods))
    for m in methods:
        if m not in METHODS:
            raise CliError(f"--methods: unknown method {m!r}; choose from {', '.join(METHODS)}")
    objects = ([o.name for o in builtin_objects()] if args.objects is None
               else _comma_list("--objects", args.objects))
    for name in objects:
        _checked(turntable_view, _checked(get_object, name, flag="--objects"), args.views,
                 flag="--views")
    sigmas = _comma_list("--sigmas", args.sigmas, float)
    for s in sigmas:
        _checked(NoiseSpec, 0.0, s, flag="--sigmas")
    if args.repeats < 1:
        raise CliError("--repeats must be >= 1")
    out = Path(args.output)
    summary_path = out.with_suffix(".summary.csv")
    with _open_output(out) as results_file, _open_output(summary_path) as summary_file:
        results = []
        for method in methods:
            logger.info("sweep: method=%s", method)
            results.extend(run_experiment(method, objects, sigmas,
                                          views=args.views, repeats=args.repeats,
                                          seed=args.seed))
        results_file.write(results_csv(results, include_timing=not args.no_timing))
        summary_file.write(summary_csv(results))
    print(f"wrote {len(results)} cells to {out} (summary: {summary_path.name})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The mme parser; every value comes from its own flag or its default."""
    parser = _Parser(prog="mme", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic view",
                       description="Generate one noisy rendered view of a built-in object.")
    p.add_argument("--object", required=True,
                   choices=sorted(o.name for o in builtin_objects()))
    p.add_argument("--view", type=int, default=1, help="turntable view index (1-based)")
    p.add_argument("--sigma", type=float, default=0.0, help="depth noise std dev")
    p.add_argument("-o", "--output", required=True, help="cloud output path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", parents=[common], help="fit constrained planes to a cloud",
                       description="Fit a plane set to a point cloud under an "
                                   "inter-plane angle constraint matrix.")
    p.add_argument("--cloud", required=True)
    p.add_argument("--constraints", required=True)
    p.add_argument("--method", choices=METHODS, default="mme")
    p.add_argument("--iterations", type=int, default=McRansacConfig.iterations)
    p.add_argument("--distance-threshold", dest="distance_threshold", type=float,
                   default=RansacConfig.distance_threshold,
                   help="inlier distance of the clustered and iterative baselines")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("bench", parents=[common], help="run the benchmark sweep",
                       description="Sweep methods over objects, noise levels, "
                                   "views and repeats; write per-cell and summary CSV.")
    p.add_argument("--methods", default=None, help="comma list (default: all)")
    p.add_argument("--objects", default=None, help="comma list (default: all)")
    p.add_argument("--sigmas", default="0,1e-5,4e-5,6e-5", help="comma list")
    p.add_argument("--views", type=int, default=8)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--no-timing", action="store_true",
                   help="write zero runtimes for byte-reproducible output")
    p.add_argument("-o", "--output", required=True, help="results CSV path")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    code = EXIT_OK  # a print that fails ran after the command's work succeeded
    try:
        if args.seed < 0:
            raise CliError(f"--seed must be >= 0, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
    except BrokenPipeError:
        # the reader closed stdout, as `mme fit ... | head -1` does; point
        # stdout at devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DegenerateInput as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
