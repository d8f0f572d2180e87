"""Deterministic text serialization: amplitude parsing, JSON and CSV emitters.

Floats are rendered with 17 significant digits so every emitted value parses
back to the identical IEEE-754 double, which makes re-emission byte-stable.
A float array's values are turned into that text in numpy (``_float_texts``)
and fill the ``%s`` slots of templates, a block of rows at a time; a grid's
axis values are formatted once each.
"""

from __future__ import annotations

import functools
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
    """The coefficient of i: a bare sign, or none, stands for 1."""
    return float(token + "1") if token in ("", "+", "-") else float(token)


_FLOAT_SLOT = "%.17g"


def fmt(value: float) -> str:
    """17-significant-digit rendering; idempotent under parse/format round trips."""
    return _FLOAT_SLOT % float(value)


# The text of a float array, _FLOAT_SLOT % v for each value, computed in numpy.
#
# CPython's float formatter takes the slow bignum path of Gay's dtoa for every
# 17-digit value, so the arrays are converted here instead, _BLOCK values at a
# time, to the same bytes:
#
# * Exponent.  e = floor(log10 |v|) is within one of the decimal exponent:
#   it is lowered where the significand D below comes out <= 1e16, raised
#   where D > 1e17, and D is taken again at the new e.
# * Significand.  D = round-half-even(S), from the double-double product of
#   |v| and 10^q = hi + lo + delta, q = 16 - e, |delta| <= 2^-106 hi: with
#   Veltkamp's split of |v| and hi, Dekker's p + pl = |v| hi is exact (for
#   |v| in [1e-250, 1e250) no step overflows and no partial product
#   underflows), and S = p + R with R = pl + |v| lo + |v| delta.  Where
#   S < 2^57, p is an integer (S > 2^53), |pl| <= 8, |v lo| <= 16 and
#   |v delta| <= 2^-49, so r = fl(pl + fl(|v| lo)) has |r - R| <= 3 * 2^-49
#   < 2^-47, and D = p + rint(r) unless r lies within _TIE of a half-integer.
# * Exact path.  _exact_texts formats whatever the bound cannot decide: true
#   ties (2^-25), r near a tie, +-inf, NaN, subnormals and every nonzero |v|
#   outside [1e-250, 1e250), where the split could overflow or lo underflow.
#   It also takes each D still outside [1e16, 1e17) after that one repair:
#   exact powers of ten, the rare S that round up to 1e17 (the double 1e-14
#   is one), and any log10 off by more than one.
# * Text.  Each value fills six little-endian uint64 words (48 bytes): sign,
#   "0.000" and the lead digit, four 4-digit groups with a point after every
#   digit, then "e+ddd" and a separator.  A keep-mask indexed by (sign, point
#   position or exponent width, last nonzero digit) selects the bytes of the
#   value's text; one np.compress, decode and split per block.
_BLOCK = 1 << 14
_MAGNITUDE = (1e-250, 1e250)  # |v| the double-double product covers
_EXP_OFFSET = 260  # offset of exponent e in the exponent-word table
_SPLITTER = 134217729.0  # 2^27 + 1
_TIE = 2.0**-46
_D_MIN = 10**16
_D_END = 10**17
_WIDTH = 48  # bytes per value in the text buffer
_MODES = 23  # fixed notation at exponents -4..16, exponent with 2 or 3 digits


@functools.cache
def _pow10(q: int) -> tuple:
    """(hi, lo): hi the double nearest 10^q, lo the double nearest 10^q - hi."""
    if q >= 0:
        power = 10**q
        hi = float(power)  # int -> float and int / int round correctly
        return hi, float(power - int(hi))
    power = 10**-q
    hi = 1 / power
    num, den = hi.as_integer_ratio()
    return hi, (den - num * power) / (den * power)


def _split(a: np.ndarray) -> tuple:
    """Veltkamp's split: a = high + low, each with at most 26 significant bits."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple:
    """(p, r), a * 10^(16 - e) = p + r to within 2^-47 where it is below 2^57."""
    q = 16 - e
    q0 = int(q.min())
    hi, lo = np.array([_pow10(k) for k in range(q0, int(q.max()) + 1)]).T
    hi, lo = hi[q - q0], lo[q - q0]
    p = a * hi
    ah, al = _split(a)
    hh, hl = _split(hi)
    return p, (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo


def _rounded(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """p + rint(r) as int64; p is an integer wherever the result is kept."""
    return p.astype(np.int64) + np.rint(r).astype(np.int64)


def _words(texts: list) -> np.ndarray:
    return np.frombuffer("".join(texts).encode(), "<u8")


@functools.cache
def _text_tables() -> tuple:
    """The text step's tables, built on first use.

    Words of "-0.000" and each lead digit, of each 4-digit group with its
    points, and of each exponent; each group's trailing zero count; and the
    keep-mask of each (sign, mode, last nonzero digit) key.
    """
    lead = _words([f"-0.000{i}." for i in range(10)])
    pairs = np.frombuffer("".join(f"{i // 10}.{i % 10}." for i in range(100)).encode(), "<u4")
    groups = (pairs[:, None] | pairs.astype(np.uint64) << 32).ravel()
    pair_zeros = np.array([2] + [int(i % 10 == 0) for i in range(1, 100)], np.int8)
    group_zeros = np.where(np.arange(100) == 0, 2 + pair_zeros[:, None], pair_zeros).ravel()
    exponents = _words([f"e{e:+04d}   " for e in range(-_EXP_OFFSET, _EXP_OFFSET)])
    key = np.arange(2 * _MODES * 17)[:, None]
    negative, mode, last = key // (_MODES * 17), key // 17 % _MODES, key % 17
    x = mode - 4  # the decimal exponent where it is below 17: fixed notation
    fixed = x < 17
    col = np.arange(_WIDTH)
    k = (col - 6) // 2  # digit k, or the point after it, in columns 6..39
    digit = (col >= 6) & (col < 40) & (col % 2 == 0)
    point = (col >= 6) & (col < 40) & (col % 2 == 1)
    keep = (col == 0) & (negative == 1)
    keep |= fixed & (x < 0) & ((col == 1) | (col == 2) | ((col >= 3) & (col < 2 - x)))
    keep |= digit & (k <= np.where(fixed & (x >= 0), np.maximum(last, x), last))
    keep |= point & np.where(fixed, (x >= 0) & (k == x), k == 0) & (k < last)
    keep |= ~fixed & (col >= 40) & (col < 45) & ((col != 42) | (mode == _MODES - 1))
    keep |= col == _WIDTH - 1
    return lead, groups, group_zeros, exponents, keep


def _exact_texts(values: np.ndarray) -> list:
    """The values the fast path cannot decide, formatted by CPython."""
    return [_FLOAT_SLOT % v for v in values.tolist()]


def _significands(a: np.ndarray) -> tuple:
    """(e, D, decided) for magnitudes in [1e-250, 1e250).

    D is the 17-digit significand at the decimal exponent e wherever
    ``decided`` holds.
    """
    e = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, e)
    d = _rounded(p, r)
    low = d <= _D_MIN
    high = d > _D_END
    redo = np.flatnonzero(low | high)
    if redo.size:
        e[redo] += high[redo].astype(np.int64) - low[redo]
        p[redo], r[redo] = _scaled(a[redo], e[redo])
        d[redo] = _rounded(p[redo], r[redo])
    return e, d, (d >= _D_MIN) & (d < _D_END) & (np.abs(r - np.floor(r) - 0.5) > _TIE)


def _text_bytes(negative: np.ndarray, e: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The values' text as ASCII bytes, separated by single spaces."""
    lead_words, group_words, group_zeros, exponent_words, keep = _text_tables()
    lead, rest = np.divmod(d, _D_MIN)
    high, low = np.divmod(rest, 10**8)
    groups = np.empty((d.size, 4), np.int32)
    groups[:, 0], groups[:, 1] = np.divmod(high, 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(low, 10**4)
    z = group_zeros[groups]
    nil = groups == 0
    zeros = z[:, 3] + nil[:, 3] * (z[:, 2] + nil[:, 2] * (z[:, 1] + nil[:, 1] * z[:, 0]))
    mode = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
    words = np.empty((d.size, _WIDTH // 8), np.uint64)
    words[:, 0] = lead_words[lead]
    words[:, 1:5] = group_words[groups]
    words[:, 5] = exponent_words[e + _EXP_OFFSET]
    keep = keep.take((negative * _MODES + mode) * 17 + 16 - zeros, axis=0)
    return np.compress(keep.ravel(), words.view(np.uint8).ravel())[:-1]


def _float_block(v: np.ndarray) -> list:
    """_float_texts of one block of float64 values."""
    a = np.abs(v)
    fast = (a >= _MAGNITUDE[0]) & (a < _MAGNITUDE[1])  # NaN fails both
    zero = a == 0.0
    a[~fast] = 2.0  # any value that needs no second pass
    e, d, decided = _significands(a)
    fast &= decided
    d[~fast] = _D_MIN
    e[zero], d[zero] = 0, 0  # the digits of 0 at e = 0 read "0"
    fast |= zero
    out = _text_bytes(np.signbit(v), e, d).tobytes().decode("ascii").split(" ")
    exact = np.flatnonzero(~fast)
    if exact.size:
        for i, t in zip(exact.tolist(), _exact_texts(v[exact])):
            out[i] = t
    return out


def _float_texts(values: np.ndarray) -> list:
    """[_FLOAT_SLOT % v for v in values.ravel().tolist()], byte for byte."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    out = []
    for start in range(0, flat.size, _BLOCK):
        out += _float_block(flat[start : start + _BLOCK])
    return out


def _array_template(shape: tuple, indent: int) -> str:
    """render_json's text for a nonempty float array of this shape, with a slot per value."""
    if not shape:
        return "%s"
    item = "  " * (indent + 1) + _array_template(shape[1:], indent + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + "  " * indent + "]"


def render_csv(header: str, *columns: np.ndarray) -> str:
    """Header line, then a line per row of the 1-D columns: floats as fmt(), ints as ints.

    The lines are filled _BLOCK rows at a time.
    """
    row = ",".join("%d" if c.dtype.kind in "iu" else "%s" for c in columns) + "\n"
    pieces = [header + "\n"]
    for start in range(0, len(columns[0]), _BLOCK):
        block = [c[start : start + _BLOCK] for c in columns]
        texts = [c.tolist() if c.dtype.kind in "iu" else _float_texts(c) for c in block]
        pieces.append(row * len(block[0]) % tuple(chain.from_iterable(zip(*texts))))
    return "".join(pieces)


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

    ``row`` holds three "%s", for the x, y and value text.  Each axis value is
    formatted once.  The rows are built a block of y values at a time: one
    template of the block's rows with their x and y text in place, filled
    with the text of the block's values.
    """
    before_x, before_y, after_y = row.split("%s", 2)
    xs = [_FLOAT_SLOT % x for x in grid.xs.tolist()]
    step = max(1, _BLOCK // len(xs))
    pieces = []
    for start in range(0, len(grid.ys), step):
        lines = []
        for y in grid.ys[start : start + step].tolist():
            y_part = before_y + _FLOAT_SLOT % y + after_y
            lines.append(before_x + (y_part + sep + before_x).join(xs) + y_part)
        values = _float_texts(grid.values[start : start + step])
        pieces.append(sep.join(lines) % tuple(values))
    pieces[0] = head + pieces[0]
    pieces[-1] += tail
    return sep.join(pieces)


def render_grid_csv(header: str, grid: GridRows) -> str:
    """render_csv(header, x, y, value) of the grid's rows, each axis value formatted once."""
    return _render_grid(grid, header + "\n", "%s,%s,%s", "\n", "\n")


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
        row = f"[\n{item}%s,\n{item}%s,\n{item}%s\n{inner}]"
        return _render_grid(obj, f"[\n{inner}", row, f",\n{inner}", f"\n{pad}]")
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f" or obj.size == 0 or obj.ndim == 0:
            return render_json(obj.tolist(), indent)
        # Filled a block of rows of the first axis at a time.
        item = inner + _array_template(obj.shape[1:], indent + 1)
        step = max(1, _BLOCK * len(obj) // obj.size)
        pieces = [
            ",\n".join([item] * len(rows)) % tuple(_float_texts(rows))
            for rows in (obj[start : start + step] for start in range(0, len(obj), step))
        ]
        return "[\n" + ",\n".join(pieces) + "\n" + pad + "]"
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

