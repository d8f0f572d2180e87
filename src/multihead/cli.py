"""Command-line front end.

Exit codes: 0 success, 1 validation mismatch, 2 usage error, 3 resource or
capacity limit.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__, closed_form, compare, fockspace, sweeps
from .errors import (
    CapacityError,
    InvalidInputError,
    MultiheadError,
    UndefinedStatisticError,
)
from .roots import nth_roots, root_sum
from .serialize import fmt, parse_amplitude, render_json, spec_to_jsonable
from .states import Family, StateSpec
from .sweeps import Quantity, SweepTemplate

GRID_POINT_CAP = 4_000_000

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _add_spec_args(parser, with_family=True):
    parser.add_argument("--alpha", required=True, help="amplitude, 'a+bi' or 'r@theta'")
    parser.add_argument("--heads", required=True, type=int, help="head count N >= 1")
    if with_family:
        parser.add_argument(
            "--family", required=True, help="'incoherent' or 'coherent'"
        )


def _spec_from_args(args) -> StateSpec:
    return StateSpec(
        alpha=parse_amplitude(args.alpha),
        n_heads=args.heads,
        family=Family.parse(args.family),
    )


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _provenance(payload: dict) -> dict:
    return {"tool": "multihead", "version": __version__, **payload}


def cmd_roots(args) -> int:
    alpha = parse_amplitude(args.alpha)
    roots = nth_roots(alpha, args.heads)
    if args.format == "text":
        lines = [f"{z.real:+.12g}{z.imag:+.12g}i" for z in roots]
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    payload = _provenance(
        {
            "alpha": {"r": alpha.r, "theta_p": alpha.theta_p},
            "n_heads": args.heads,
            "roots": [complex(z) for z in roots],
            "root_sum": complex(root_sum(roots)),
        }
    )
    _emit(render_json(payload) + "\n", args.out)
    return EXIT_OK


def cmd_stats(args) -> int:
    spec = _spec_from_args(args)
    table = closed_form.moment_table(spec)
    try:
        mq = closed_form.mandel_q(spec)
    except UndefinedStatisticError:
        mq = None
    variances = closed_form.quadrature_variances(spec)
    payload = _provenance(
        {
            "spec": spec_to_jsonable(spec),
            "moments": {
                "a_dag": table.a_dag,
                "a": table.a,
                "n_mean": table.n_mean,
                "a_dag2": table.a_dag2,
                "a2": table.a2,
                "a_dag2_a2": table.a_dag2_a2,
            },
            "mean_photon": closed_form.mean_photon(spec),
            "mandel_q": mq,
            "var_x1": variances.var_x1,
            "var_x2": variances.var_x2,
            "parity": closed_form.parity(spec),
        }
    )
    _emit(render_json(payload) + "\n", args.out)
    return EXIT_OK


def cmd_wigner(args) -> int:
    spec = _spec_from_args(args)
    if not (args.x_min < args.x_max and args.y_min < args.y_max):
        raise InvalidInputError("grid ranges must satisfy min < max")
    if args.nx < 2 or args.ny < 2:
        raise InvalidInputError("grid needs at least 2 points per axis")
    if args.nx * args.ny > GRID_POINT_CAP:
        raise CapacityError(f"grid exceeds {GRID_POINT_CAP} points")
    xs = np.linspace(args.x_min, args.x_max, args.nx)
    ys = np.linspace(args.y_min, args.y_max, args.ny)
    xx, yy = np.meshgrid(xs, ys, indexing="xy")  # y-major rows
    betas = (xx + 1j * yy) / math.sqrt(2.0)
    values = np.asarray(closed_form.wigner(spec, betas), dtype=float)
    if args.format == "csv":
        lines = ["x,y,w"]
        for iy in range(args.ny):
            for ix in range(args.nx):
                lines.append(f"{fmt(xx[iy, ix])},{fmt(yy[iy, ix])},{fmt(values[iy, ix])}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = _provenance(
            {
                "spec": spec_to_jsonable(spec),
                "grid": {
                    "x_min": args.x_min,
                    "x_max": args.x_max,
                    "y_min": args.y_min,
                    "y_max": args.y_max,
                    "nx": args.nx,
                    "ny": args.ny,
                },
                "rows": [
                    [float(xx[iy, ix]), float(yy[iy, ix]), float(values[iy, ix])]
                    for iy in range(args.ny)
                    for ix in range(args.nx)
                ],
            }
        )
        _emit(render_json(payload) + "\n", args.out)
    return EXIT_OK


_DEFAULT_THRESHOLDS = {
    Quantity.MANDEL_Q: 0.0,
    Quantity.VAR_X1: 0.5,
    Quantity.VAR_X2: 0.5,
}


def cmd_sweep(args) -> int:
    quantity = Quantity.parse(args.quantity)
    template = SweepTemplate(
        theta_p=args.theta, n_heads=args.heads, family=Family.parse(args.family)
    )
    result = sweeps.sweep(template, quantity, args.r_min, args.r_max, args.step)
    threshold = args.threshold
    if threshold is None:
        threshold = _DEFAULT_THRESHOLDS.get(quantity)
    crossings = (
        sweeps.find_crossings(result, threshold) if threshold is not None else []
    )
    if args.format == "csv":
        lines = ["r,value"]
        lines += [f"{fmt(r)},{fmt(v)}" for r, v in result.samples]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = _provenance(
            {
                "quantity": quantity.value,
                "template": {
                    "theta_p": template.theta_p,
                    "n_heads": template.n_heads,
                    "family": template.family.value,
                },
                "r_min": args.r_min,
                "r_max": args.r_max,
                "step": args.step,
                "threshold": threshold,
                "samples": [[float(r), float(v)] for r, v in result.samples],
                "crossings": [float(c) for c in crossings],
            }
        )
        _emit(render_json(payload) + "\n", args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    spec = _spec_from_args(args)
    report = compare.validate_spec(spec, tol=args.tol)
    text = compare.validation_table(report)
    _emit(text + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_MISMATCH


def cmd_fock(args) -> int:
    spec = _spec_from_args(args)
    if args.max_m < 0:
        raise InvalidInputError("max-m must be nonnegative")
    if (args.max_m + 1) ** 2 > GRID_POINT_CAP:
        raise CapacityError(f"Fock block exceeds {GRID_POINT_CAP} elements")
    index = np.arange(args.max_m + 1)
    magnitudes = np.abs(closed_form.fock_element(spec, index[:, None], index))
    diag = closed_form.pnd(spec, index)
    if args.format == "csv":
        lines = ["m,n,abs_p_mn"]
        lines += [f"{m},{n},{fmt(v)}" for (m, n), v in np.ndenumerate(magnitudes)]
        lines.append("m,p_mm")
        lines += [f"{m},{fmt(p)}" for m, p in enumerate(diag)]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = _provenance(
            {
                "spec": spec_to_jsonable(spec),
                "max_m": args.max_m,
                "abs_fock_elements": magnitudes.tolist(),
                "pnd": diag.tolist(),
            }
        )
        _emit(render_json(payload) + "\n", args.out)
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
    p.add_argument("--out")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("stats", help="moments and derived statistics")
    _add_spec_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("wigner", help="Wigner function on a phase-space grid")
    _add_spec_args(p)
    p.add_argument("--x-min", type=float, default=-4.0)
    p.add_argument("--x-max", type=float, default=4.0)
    p.add_argument("--y-min", type=float, default=-4.0)
    p.add_argument("--y-max", type=float, default=4.0)
    p.add_argument("--nx", type=int, default=201)
    p.add_argument("--ny", type=int, default=201)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_wigner)

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
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="closed-form vs Fock-oracle agreement")
    _add_spec_args(p)
    p.add_argument("--tol", type=float, default=compare.TOL_DEFAULT)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fock", help="Fock matrix element magnitudes and PND")
    _add_spec_args(p)
    p.add_argument("--max-m", type=int, default=20)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fock)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InvalidInputError, UndefinedStatisticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MultiheadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
