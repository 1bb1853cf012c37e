"""Command-line surface for the registration pipeline.

Subcommands cover the full flow: distance transforms and label maps for
landmark volumes, landmark extraction, two-stage point registration
(closed-form similarity, then optional Adam refinement), TRE evaluation,
plus a seeded synthetic-case generator and a batch method comparison.

Exit codes: 0 success, 2 I/O, format or usage problem, 3 degenerate data,
4 correspondence mismatch, 5 numerical degeneracy or a parameter value
outside its range. Options parse here as plain numbers; the library checks
their ranges. A library error exits with its class's ``exit_code``; an
``OSError`` exits 2, and a ``MemoryError`` (a grid or landmark count too
large to allocate) exits 5.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import Point3, Volume3, compose, decompose
from .errors import FormatError, LandregError
from .evaluate import METHODS, compare_methods, tre
from .fileio import (
    _decoding,
    read_points,
    read_transform,
    read_volume,
    volume_raw_name,
    write_file,
    write_trace,
    write_transform,
    write_volume,
)
from .landmarks import BinaryMask, distance_transform, extract_extremes, make_label, recover_landmark
from .refine import TRACE_STRIDE, RefineConfig, refine
from .synth import SCALE_MODES, SynthConfig, generate_cases, load_cases, save_cases
from .umeyama import umeyama_fit

_AXES = {"x": 0, "y": 1, "z": 2}


def _triple(convert: type, form: str):
    """An argparse type for three comma-separated numbers, each read by
    ``convert``; ``form`` shows the expected text in the usage error."""

    def parse(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected {form!r}, got {text!r}")
        try:
            return tuple(convert(p) for p in parts)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


_float_triple = _triple(float, "a,b,c")


def _methods_arg(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(","))
    for name in names:
        if name not in METHODS:
            known = ", ".join(sorted(METHODS))
            raise argparse.ArgumentTypeError(f"unknown method {name!r} (known: {known})")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"duplicate method in {text!r}")
    return names


def _read_mask(path: str) -> BinaryMask:
    """Read a volume as a binary mask; values outside {0, 1} are a format error."""
    with _decoding(path):
        return BinaryMask(read_volume(path))


def cmd_edt(args: argparse.Namespace) -> None:
    volume_raw_name(args.out)  # refuse a bad output name before the work
    write_volume(distance_transform(_read_mask(args.mask)), args.out)


def cmd_make_label(args: argparse.Namespace) -> None:
    volume_raw_name(args.out)
    template = Volume3(dims=args.dims, spacing=args.spacing, origin=Point3(*args.origin))
    write_volume(make_label(Point3(*args.landmark), template), args.out)


def cmd_register(args: argparse.Namespace) -> None:
    config = RefineConfig(iterations=args.iters, step_size=args.lr)
    if args.trace and not args.refine:
        raise FormatError("--trace requires --refine")
    moving = read_points(args.moving)
    fixed = read_points(args.fixed)
    matrix = umeyama_fit(moving, fixed)
    if args.refine:
        result = refine(decompose(matrix), moving, fixed, config)
        matrix = compose(result.params)
        write_transform(matrix, args.out, params=result.params)
        if args.trace:
            write_trace(result.loss_trace, args.trace)
        print(f"initial loss: {result.initial_loss:.3f} mm")
        print(f"final loss: {result.final_loss:.3f} mm")
    else:
        write_transform(matrix, args.out)
        print(f"loss: {tre(matrix, moving, fixed).mean:.3f} mm")


def cmd_evaluate(args: argparse.Namespace) -> None:
    transform = read_transform(args.transform)
    moving = read_points(args.moving)
    fixed = read_points(args.fixed)
    print(f"TRE: {tre(transform, moving, fixed)}")


def cmd_extract(args: argparse.Namespace) -> None:
    # compute everything before printing, so a failure leaves stdout empty
    if args.mode == "landmark":
        rows = [("landmark", recover_landmark(read_volume(args.volume)))]
    else:
        lo, hi = extract_extremes(_read_mask(args.volume), axis=_AXES[args.axis])
        rows = [("lo", lo), ("hi", hi)]
    print("name,x,y,z")
    for name, point in rows:
        print(f"{name},{point.x!r},{point.y!r},{point.z!r}")


def cmd_synth(args: argparse.Namespace) -> None:
    config = SynthConfig(
        n_fit=args.n_fit,
        n_holdout=args.n_holdout,
        noise_sigma=args.noise,
        scale_mode=args.scale_mode,
    )
    cases = generate_cases(args.seed, args.cases, config)
    save_cases(cases, args.out_dir, config)
    print(f"wrote {len(cases)} case(s) to {args.out_dir}")


def cmd_compare(args: argparse.Namespace) -> None:
    cases = load_cases(args.case_dir)
    comparison = compare_methods(cases, {name: METHODS[name] for name in args.methods})
    if args.csv:
        write_file(args.csv, comparison.to_csv().encode("utf-8"))
    print(comparison.to_text(), end="")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``landreg`` parser, built on first use and shared by every later call.

    ``parse_args`` keeps no state between calls, so :func:`main` reuses one
    parser for the life of the process. Callers must not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="landreg",
        description="Landmark-driven volume registration: distance maps, "
        "closed-form similarity fitting, and gradient-refined affine alignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=handler)
        return p

    p = command("edt", cmd_edt, "exact Euclidean distance transform of a binary mask volume")
    p.add_argument("mask", help="input binary mask volume (JSON header)")
    p.add_argument("out", help="output distance-map volume (JSON header)")

    p = command("make-label", cmd_make_label, "normalized landmark label volume exp(-10 d / max d)")
    p.add_argument("out", help="output label volume (JSON header)")
    p.add_argument("--landmark", type=_float_triple, required=True, metavar="X,Y,Z", help="landmark position in mm")
    p.add_argument("--dims", type=_triple(int, "nx,ny,nz"), required=True, metavar="NX,NY,NZ", help="grid size in voxels")
    p.add_argument("--spacing", type=_float_triple, required=True, metavar="SX,SY,SZ", help="voxel spacing in mm")
    p.add_argument("--origin", type=_float_triple, default=(0.0, 0.0, 0.0), metavar="OX,OY,OZ", help="grid origin in mm")

    p = command("register", cmd_register, "fit a transform from corresponding landmark CSVs")
    p.add_argument("moving", help="moving landmark CSV")
    p.add_argument("fixed", help="fixed landmark CSV")
    p.add_argument("out", help="output transform JSON")
    p.add_argument("--refine", action="store_true", help="refine all nine parameters with Adam after the closed-form fit")
    p.add_argument("--iters", type=int, default=10000, help="refinement iterations")
    p.add_argument("--lr", type=float, default=1e-5, help="refinement step size")
    p.add_argument("--trace", metavar="CSV", help=f"write the loss at iterations 0, 1, every {TRACE_STRIDE}th "
                   "and the last as CSV (requires --refine)")

    p = command("evaluate", cmd_evaluate, "TRE of a transform over evaluation landmark CSVs")
    p.add_argument("transform", help="transform JSON")
    p.add_argument("moving", help="moving evaluation landmark CSV")
    p.add_argument("fixed", help="fixed evaluation landmark CSV")

    p = command("extract", cmd_extract, "landmark coordinates from a heatmap or mask volume")
    p.add_argument("volume", help="input volume (JSON header)")
    p.add_argument("--mode", choices=("landmark", "extremes"), default="landmark", help="peak of a heatmap, or extreme feature voxels of a mask")
    p.add_argument("--axis", choices=tuple(_AXES), default="x", help="axis for extreme extraction")

    p = command("synth", cmd_synth, "generate seeded synthetic registration cases")
    p.add_argument("out_dir", help="output directory (one subdirectory per case)")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--cases", type=int, default=1, help="number of cases")
    p.add_argument("--noise", type=float, default=0.0, help="Gaussian landmark noise sigma in mm")
    p.add_argument("--scale-mode", choices=SCALE_MODES, default="uniform", help="one shared scale or three independent scales")
    p.add_argument("--n-fit", type=int, default=4, help="fitting landmarks per case")
    p.add_argument("--n-holdout", type=int, default=1, help="hold-out landmarks per case")

    p = command("compare", cmd_compare, "TRE table and paired t tests for several methods over a case directory")
    p.add_argument("case_dir", help="directory of cases (layout of the synth command)")
    p.add_argument(
        "--methods",
        type=_methods_arg,
        default=tuple(METHODS),
        metavar="A,B,...",
        help=f"comma-separated method names: {', '.join(METHODS)}",
    )
    p.add_argument("--csv", metavar="PATH", help="also write the table as CSV")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except LandregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
