"""Command-line front end.

Exit codes: 0 success, 1 validation mismatch, 2 usage error, 3 resource or
capacity limit; an error's code is its type's ``exit_code``.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import sys

import numpy as np

from . import __version__, closed_form, compare, sweeps
from .errors import CapacityError, InvalidInputError, MultiheadError
from .roots import nth_roots, root_sum
from .serialize import GridRows, _Line, parse_amplitude, render_csv, render_grid_csv, render_json
from .states import Family, StateSpec
from .sweeps import Quantity, SweepTemplate

GRID_POINT_CAP = 4_000_000

_MALLOC_THRESHOLD = 32 << 20

# glibc maps each block above its mmap threshold afresh and, as blocks are
# freed, returns a free heap top above its trim threshold.  Left adaptive, both
# start low and rise only as large blocks are freed, so they depend on what was
# imported and run before.  Fixed at one 32 MiB, large grids, kernels and
# temporaries reuse retained heap pages instead of faulting in new ones, and a
# free heap top past 32 MiB goes back to the system; freed blocks below a live
# one stay on the heap for later commands to reuse.
_libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
if hasattr(_libc, "mallopt"):  # musl has none
    _libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _libc.mallopt(-3, _MALLOC_THRESHOLD)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, _MALLOC_THRESHOLD)  # M_TRIM_THRESHOLD


EXIT_OK = 0
EXIT_MISMATCH = 1


def _add_spec_args(parser, with_family=True):
    parser.add_argument("--alpha", required=True, help="amplitude, 'a+bi' or 'r@theta'")
    parser.add_argument("--heads", required=True, type=int, help="head count N >= 1")
    if with_family:
        parser.add_argument("--family", required=True, help="'incoherent' or 'coherent'")


def _spec_from_args(args) -> StateSpec:
    return StateSpec(parse_amplitude(args.alpha), args.heads, Family.parse(args.family))


def _emit(out_path, *texts: str):
    """Write the texts in turn to out_path, or to stdout, without joining them."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.writelines(texts)
        except OSError as exc:
            raise InvalidInputError(f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.writelines(texts)


def _emit_json(payload: dict, out_path):
    _emit(out_path, render_json(_Line({"tool": "multihead", "version": __version__, **payload})))


def cmd_roots(args) -> int:
    alpha = parse_amplitude(args.alpha)
    roots = nth_roots(alpha, args.heads)
    if args.format == "text":
        lines = [f"{z.real:+.12g}{z.imag:+.12g}i" for z in roots]
        _emit(args.out, "\n".join(lines) + "\n")
        return EXIT_OK
    _emit_json(
        {
            "alpha": alpha,
            "n_heads": args.heads,
            "roots": [complex(z) for z in roots],
            "root_sum": complex(root_sum(roots)),
        },
        args.out,
    )
    return EXIT_OK


def cmd_stats(args) -> int:
    spec = _spec_from_args(args)
    # The state's head sums, formed once and read by the moments and by every
    # statistic of the sweep formula table, in the table's order.
    r = spec.alpha.r
    sums = closed_form._state_sums(spec, r)
    payload = {"spec": spec, "moments": closed_form._moment_table(spec, sums)}
    for quantity, formula in sweeps._FORMULAS.items():
        value = float(formula(spec, r, sums))  # NaN exactly where undefined: Mandel Q at <n> = 0
        payload[quantity.value.replace("-", "_")] = None if math.isnan(value) else value
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_wigner(args) -> int:
    spec = _spec_from_args(args)
    # A width is finite only if both bounds are, and NaN fails every comparison,
    # so this refuses what np.linspace would overflow on before it runs.
    widths = (args.x_max - args.x_min, args.y_max - args.y_min)
    if not all(0.0 < width < math.inf for width in widths):
        raise InvalidInputError("grid ranges need min < max, both finite, with a finite width")
    if args.nx < 2 or args.ny < 2:
        raise InvalidInputError("grid needs at least 2 points per axis")
    if args.nx * args.ny > GRID_POINT_CAP:
        raise CapacityError(f"grid exceeds {GRID_POINT_CAP} points")
    xs = np.linspace(args.x_min, args.x_max, args.nx)
    ys = np.linspace(args.y_min, args.y_max, args.ny)
    # The quadratures x, y are sqrt(2) Re beta and sqrt(2) Im beta; rows are y-major.
    # The bound is dropped at once, so it is not held through emission.
    values = closed_form.wigner_grid(spec, xs / math.sqrt(2.0), ys / math.sqrt(2.0))[0]
    if args.format == "csv":
        _emit(args.out, render_grid_csv("x,y,w", values, xs[None], ys[:, None]))
    else:
        grid = {k: getattr(args, k) for k in ("x_min", "x_max", "y_min", "y_max", "nx", "ny")}
        _emit_json({"spec": spec, "grid": grid, "rows": GridRows(xs, ys, values)}, args.out)
    return EXIT_OK


_DEFAULT_THRESHOLDS = {
    Quantity.MANDEL_Q: 0.0,
    Quantity.VAR_X1: 0.5,
    Quantity.VAR_X2: 0.5,
}


def cmd_sweep(args) -> int:
    quantity = Quantity.parse(args.quantity)
    template = SweepTemplate(args.theta, args.heads, Family.parse(args.family))
    result = sweeps.sweep(template, quantity, args.r_min, args.r_max, args.step)
    threshold = _DEFAULT_THRESHOLDS.get(quantity) if args.threshold is None else args.threshold
    crossings = [] if threshold is None else sweeps.find_crossings(result, threshold)
    if args.format == "csv":
        _emit(args.out, render_csv("r,value", *result.samples.T))
    else:
        _emit_json(
            {
                "quantity": quantity,
                "template": template,
                "r_min": args.r_min,
                "r_max": args.r_max,
                "step": args.step,
                "threshold": threshold,
                "samples": result.samples,
                "crossings": crossings,
            },
            args.out,
        )
    return EXIT_OK


def cmd_validate(args) -> int:
    spec = _spec_from_args(args)
    report = compare.validate_spec(spec, tol=args.tol)
    text = compare.validation_table(report)
    _emit(args.out, text + "\n")
    return EXIT_OK if report.passed else EXIT_MISMATCH


def cmd_fock(args) -> int:
    spec = _spec_from_args(args)
    if args.max_m < 0:
        raise InvalidInputError("max-m must be nonnegative")
    if (args.max_m + 1) ** 2 > GRID_POINT_CAP:
        raise CapacityError(f"Fock block exceeds {GRID_POINT_CAP} elements")
    index = np.arange(args.max_m + 1)
    magnitudes = np.abs(closed_form.fock_element(spec, index[:, None], index))
    diag = magnitudes.diagonal()
    if args.format == "csv":
        block = render_grid_csv("m,n,abs_p_mn", magnitudes, index[:, None], index[None])
        _emit(args.out, block, render_csv("m,p_mm", index, diag))
    else:
        payload = {"spec": spec, "max_m": args.max_m, "abs_fock_elements": magnitudes, "pnd": diag}
        _emit_json(payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multihead",
        description="Multi-headed coherent-state superpositions: roots, statistics, "
        "Fock elements, Wigner grids, sweeps, and oracle validation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="N-th roots of the amplitude")
    _add_spec_args(p, with_family=False)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("stats", help="moments and derived statistics")
    _add_spec_args(p)

    p = sub.add_parser("wigner", help="Wigner function on a phase-space grid")
    _add_spec_args(p)
    p.add_argument("--x-min", type=float, default=-4.0)
    p.add_argument("--x-max", type=float, default=4.0)
    p.add_argument("--y-min", type=float, default=-4.0)
    p.add_argument("--y-max", type=float, default=4.0)
    p.add_argument("--nx", type=int, default=201)
    p.add_argument("--ny", type=int, default=201)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("sweep", help="scan a statistic over the modulus")
    p.add_argument("--theta", type=float, default=0.0, help="principal argument (radians)")
    p.add_argument("--heads", required=True, type=int)
    p.add_argument("--family", required=True)
    p.add_argument("--quantity", required=True)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--step", type=float, default=sweeps.DEFAULT_STEP)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("validate", help="closed-form vs Fock-oracle agreement")
    _add_spec_args(p)
    p.add_argument("--tol", type=float, default=compare.TOL_DEFAULT)

    p = sub.add_parser("fock", help="Fock matrix element magnitudes and PND")
    _add_spec_args(p)
    p.add_argument("--max-m", type=int, default=20)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


# One parser per process: parse_args keeps no state between calls.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, so a cmd_* rebound after the parser was built still runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except MultiheadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
