"""Deterministic text serialization: amplitude parsing, JSON and CSV emitters.

Floats are rendered with 17 significant digits so every emitted value parses
back to the identical IEEE-754 double, which makes re-emission byte-stable.
A numpy array is emitted in one `%` pass, with the same text as per value;
a grid's rows are emitted with each axis value formatted once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidInputError
from .roots import PolarAmplitude
from .states import StateSpec

_FLOAT = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^(?P<re>{_FLOAT})$")
_RE_IMAG = re.compile(rf"^(?P<im>{_FLOAT}|[+-]?)i$")
_RE_CART = re.compile(rf"^(?P<re>{_FLOAT})(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-])i$")
_RE_POLAR = re.compile(rf"^(?P<r>{_FLOAT})@(?P<theta>{_FLOAT})$")


def parse_amplitude(text: str) -> PolarAmplitude:
    """Parse 'a+bi' cartesian or 'r@theta' polar (theta in radians)."""
    s = text.strip().replace(" ", "")
    m = _RE_POLAR.fullmatch(s)
    if m:
        r = float(m.group("r"))
        if r < 0.0:
            raise InvalidInputError(f"polar modulus must be nonnegative: {text!r}")
        return PolarAmplitude(r, float(m.group("theta")))
    m = _RE_REAL.fullmatch(s)
    if m:
        return PolarAmplitude.from_cartesian(float(m.group("re")), 0.0)
    m = _RE_IMAG.fullmatch(s)
    if m:
        return PolarAmplitude.from_cartesian(0.0, _imag_coeff(m.group("im")))
    m = _RE_CART.fullmatch(s)
    if m:
        return PolarAmplitude.from_cartesian(float(m.group("re")), _imag_coeff(m.group("im")))
    raise InvalidInputError(f"cannot parse amplitude {text!r}; use 'a+bi' or 'r@theta'")


def _imag_coeff(token: str) -> float:
    if token in ("", "+"):
        return 1.0
    if token == "-":
        return -1.0
    return float(token)


# fmt() and the array emitters fill this one slot, so an array formatted in
# one `%` pass reads exactly as fmt() of each value.
_FLOAT_SLOT = "%.17g"


def fmt(value: float) -> str:
    """17-significant-digit rendering; idempotent under parse/format round trips."""
    return _FLOAT_SLOT % float(value)


def _array_template(shape: tuple, indent: int) -> str:
    """render_json's text for a nonempty float array of this shape, with a slot per value."""
    if not shape:
        return _FLOAT_SLOT
    item = "  " * (indent + 1) + _array_template(shape[1:], indent + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + "  " * indent + "]"


def render_csv(header: str, *columns: np.ndarray) -> str:
    """Header line, then a line per row of the 1-D columns: floats as fmt(), ints as ints."""
    row = ",".join("%d" if c.dtype.kind in "iu" else _FLOAT_SLOT for c in columns)
    template = "\n".join([header] + [row] * len(columns[0])) + "\n"
    return template % tuple(chain.from_iterable(zip(*(c.tolist() for c in columns))))


@dataclass(frozen=True)
class GridRows:
    """The (x, y, value) rows of a grid in y-major order: x runs fastest.

    ``values[iy, ix]`` belongs to ``(xs[ix], ys[iy])``; both axes are nonempty.
    Emitted, the rows read exactly as the P x 3 float array of them would.
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray


def _render_grid(grid: GridRows, head: str, row: str, sep: str, tail: str) -> str:
    """head, then the rows joined by sep, then tail.

    ``row`` holds two "%s" for the x and y text, then the value's slot.  Each
    axis value is formatted once, into one template of all rows with their x
    and y text in place, and the values fill it in one `%` pass.
    """
    before_x, before_y, after_y = row.split("%s")
    xs = [_FLOAT_SLOT % x for x in grid.xs.tolist()]
    lines = []
    for y in grid.ys.tolist():
        y_part = before_y + _FLOAT_SLOT % y + after_y
        lines.append(before_x + (y_part + sep + before_x).join(xs) + y_part)
    lines[0] = head + lines[0]
    lines[-1] += tail
    template = sep.join(lines)
    del lines  # freed before the `%` pass, which lowers a large grid's peak RSS
    return template % tuple(grid.values.ravel().tolist())


def render_grid_csv(header: str, grid: GridRows) -> str:
    """render_csv(header, x, y, value) of the grid's rows, each axis value formatted once."""
    return _render_grid(grid, header + "\n", "%s,%s," + _FLOAT_SLOT, "\n", "\n")


def render_json(obj, indent: int = 0) -> str:
    """Minimal deterministic JSON renderer with fmt()-formatted floats.

    Complex values are emitted as {"re": ..., "im": ...} objects.  A numpy
    array reads exactly as its .tolist() would, and GridRows as the list of
    its [x, y, value] rows.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, GridRows):
        item = "  " * (indent + 2)
        row = f"[\n{item}%s,\n{item}%s,\n{item}{_FLOAT_SLOT}\n{inner}]"
        return _render_grid(obj, f"[\n{inner}", row, f",\n{inner}", f"\n{pad}]")
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f" or obj.size == 0 or obj.ndim == 0:
            return render_json(obj.tolist(), indent)
        return _array_template(obj.shape, indent) % tuple(obj.ravel().tolist())
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, complex):
        return render_json({"re": float(obj.real), "im": float(obj.imag)}, indent)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # One join over every piece, so a large member is copied once.
        pieces = ["{\n"]
        for k, v in obj.items():
            pieces += [f'{inner}"{k}": ', render_json(v, indent + 1), ",\n"]
        pieces[-1] = "\n" + pad + "}"
        return "".join(pieces)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj).__name__}")


def spec_to_jsonable(spec: StateSpec) -> dict:
    return {
        "alpha": {"r": spec.alpha.r, "theta_p": spec.alpha.theta_p},
        "n_heads": spec.n_heads,
        "family": spec.family.value,
    }

