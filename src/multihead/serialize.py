"""Deterministic text serialization: amplitude parsing, JSON and CSV emitters.

Floats are rendered with 17 significant digits so every emitted value parses
back to the identical IEEE-754 double, which makes re-emission byte-stable.
Every float output is a table whose points are formed in numpy as byte
records, a block of points at a time: a separator, the point's labels and
the value's text.  A block of records becomes text in one pass that deletes the
NUL bytes around the texts.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .roots import PolarAmplitude

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_FLOAT = rf"[+-]?{_UNSIGNED}"
_RE_REAL = re.compile(rf"^(?P<re>{_FLOAT})$")
_RE_IMAG = re.compile(rf"^(?P<im>{_FLOAT}|[+-]?)i$")
_RE_CART = re.compile(rf"^(?P<re>{_FLOAT})(?P<im>[+-](?:{_UNSIGNED})?)i$")
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
# time, to the same bytes.  Every per-value quantity is a contiguous 1-D
# array, and every table lookup a take from a 1-D table (or of whole rows):
#
# * Exponent.  e = floor(log10 |v|) is within one of the decimal exponent,
#   and D below is taken once, at that e.  It is the exponent wherever
#   1e16 < D < 1e17: one too high gives D <= 1e16 and one too low D >= 1e17.
#   At D = 1e16 it is the exponent where S >= 1e16, and e's text is the
#   right one wherever S > 1e16 - 1/20, since 10 S then rounds up to 1e17 at
#   e - 1.  Every table over e is indexed by e + _EXP_OFFSET.
# * Significand.  D = round-half-even(S), from the double-double product of
#   |v| and 10^q = hi + lo + delta, q = 16 - e, |delta| <= 2^-106 hi: with
#   Veltkamp's split of |v| and hi (hi's is tabled with hi and lo), Dekker's
#   p + pl = |v| hi is exact (for |v| in [1e-250, 1e250) no step overflows
#   and no partial product underflows), and S = p + R with
#   R = pl + |v| lo + |v| delta.  Where S < 2^57, p is an integer (S > 2^53),
#   |pl| <= 8, |v lo| <= 16 and |v delta| <= 2^-49, so r = fl(pl + fl(|v| lo))
#   has |r - R| <= 3 * 2^-49 < 2^-47, and D = p + rint(r) unless r lies
#   within _TIE of a half-integer.
# * Exact path.  _exact_texts formats whatever the pass leaves undecided:
#   true ties (2^-25), r near a tie, +-inf, NaN, subnormals, every nonzero
#   |v| outside [1e-250, 1e250), where the split could overflow or lo
#   underflow, every D outside [1e16, 1e17), and the D of exactly 1e16 where
#   r <= rint(r) - _TIE.  Those are the values whose log10 is off by one,
#   among them a power of ten whose double lies below it (the double 1e-248
#   has S = 1e16 - 0.2), and the rare S that round up to 1e17 (the double
#   1e-14 is one).  Where r > rint(r) - _TIE, S > 1e16 - 2^-45, so a D of
#   exactly 1e16 stays on the fast path: 1.0, 0.01 and every power of ten
#   whose double is not below it.
# * Text.  Each value fills four little-endian uint64 words (32 bytes):
#   sign, "0.000", the lead digit and a point; the 16 digits after the lead,
#   each 4-digit group's text a take from one table; then "e+ddd", which ends
#   in byte 28.  The digits are taken by floor division by constants.  Fixed
#   notation at 10 <= |v| < 1e16 puts its point after digit x = e (1..15) of
#   those 16: for these values alone, the digits after it move one byte on
#   in words 1 and 2, the point fills the byte they leave, and digit 16 moves
#   into word 3, whose exponent fixed notation does not print.  A keep-mask
#   row of four words, indexed by (sign, point position or exponent width,
#   last nonzero digit), holds 0xFF in the bytes of the value's text and 0x00
#   elsewhere, and the AND of the words with it sets every other byte to NUL
#   (_float_records).  An exact-path value's CPython text is written,
#   NUL-padded, into its own record's first _TEXT bytes.  No kept byte is
#   NUL, so one translate that deletes NULs, and one decode, give a block's
#   text.
# * Tables.  Every float output is an (R, C) table whose point (i, j) is one
#   record: a separator slot, a slot for each of its labels, then the first
#   _TEXT bytes of its value's record; a labelled table's one separator opens
#   its first label's slot.  Each slot is NUL-padded to the widest of its
#   kind and broadcast over a block's rows and columns (_table_pieces).
#   render_csv's separators are "\n" and ",", and a render_json float array
#   of one or two axes has the list path's between-row and within-row texts.
#   A label array follows the rows, (R, 1), or the columns, (1, C): a grid's
#   x and y, the Fock block's m and n.  Each label array is formatted once per
#   table by CPython's _FLOAT_SLOT % v, and NULs pad each text to its array's
#   longest before the text that follows every label (the value separator).
#   The head stands in for the first point's separator.  A table's blocks
#   are built in one reused buffer, and render_json collects a payload's
#   pieces, table blocks included, in one list and joins it once.
_BLOCK = 1 << 14
_MAGNITUDE = (1e-250, 1e250)  # |v| the double-double product covers
_EXP_OFFSET = 260  # offset of exponent e in the tables over e
_SPLITTER = 134217729.0  # 2^27 + 1
_TIE = 2.0**-46
_D_MIN = 10**16
_D_END = 10**17
_WIDTH = 32  # bytes per value in the text buffer
_TEXT = 29  # a record's text bytes: the exponent ends in byte 28, and no text is longer
_MODES = 23  # fixed notation at exponents -4..16, exponent with 2 or 3 digits


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


def _words(texts: list) -> np.ndarray:
    return np.frombuffer("".join(texts).encode(), "<u8")


@functools.cache
def _text_tables() -> tuple:
    """The kernel's tables, built on first use.

    Over e: hi, lo, hi's split halves, the exponent words, the key of each
    mode with no digit dropped, and the digit words' masks of the bytes that
    move and of the point (0 outside e = 1..15).  Words of "-0.000" and each
    lead digit; each 4-digit group's text as a uint32 and its trailing zero
    count; the keep-mask words of each (sign, mode, last nonzero digit) key.
    """
    e = np.arange(-_EXP_OFFSET, _EXP_OFFSET)
    hi, lo = (np.array(t) for t in zip(*(_pow10(16 - k) for k in e.tolist())))
    exponents = _words([f"e{k:+04d}   " for k in e.tolist()])
    mode_keys = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22)) * 17 + 16
    lead = _words([f"-0.000{i}." for i in range(10)])
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), "<u2")
    quads = (pairs[:, None] | pairs.astype(np.uint32) << 16).ravel()
    g = np.arange(10**4)
    quad_zeros = sum((g % 10**n == 0).astype(np.int8) for n in range(1, 5))
    # Fixed notation's point after digit x = e = 1..15 of words 1 and 2 is
    # byte j = x - 8w of word w: bytes j..7 of each word move one byte on, and
    # the point takes byte j.
    moved, points = np.zeros((2, 2, 2 * _EXP_OFFSET), np.uint64)
    for x in range(1, 16):
        for w, j in enumerate((x, x - 8)):
            moved[w, _EXP_OFFSET + x] = 2**64 - (1 << 8 * min(max(j, 0), 8))
            points[w, _EXP_OFFSET + x] = ord(".") << 8 * j if 0 <= j < 8 else 0
    key = np.arange(2 * _MODES * 17)[:, None]
    negative, mode, last = key // (_MODES * 17), key // 17 % _MODES, key % 17
    x = mode - 4  # the decimal exponent where it is below 17: fixed notation
    fixed = x < 17
    col = np.arange(_WIDTH)
    point = np.where(fixed & (x > 0), 8 + x, 7)  # the point's column
    k = np.where(col == 6, 0, col - 7 - ((col > point) & (point > 7)))  # digit k, in 6, 8..24
    digit = ((col == 6) | (col >= 8)) & (col != point) & (k <= 16)
    after = np.where(fixed, x, 0)  # the digit the point follows, if any
    keep = (col == 0) & (negative == 1)
    keep |= fixed & (x < 0) & ((col == 1) | (col == 2) | ((col >= 3) & (col < 2 - x)))
    keep |= digit & (k <= np.where(fixed & (x >= 0), np.maximum(last, x), last))
    keep |= (col == point) & (after >= 0) & (after < last)
    keep |= ~fixed & (col >= 24) & (col < _TEXT) & ((col != 26) | (mode == _MODES - 1))
    keep = np.where(keep, np.uint8(255), np.uint8(0)).view("<u8")
    return hi, lo, *_split(hi), exponents, mode_keys, lead, quads, quad_zeros, moved, points, keep


def _exact_texts(values: np.ndarray) -> list:
    """The values the fast path cannot decide, formatted by CPython."""
    return [_FLOAT_SLOT % v for v in values.tolist()]


def _float_records(v: np.ndarray) -> np.ndarray:
    """Each float64 value's _WIDTH-byte record: its text, every other byte NUL.

    The text lies within the first _TEXT bytes; the bytes after them are NUL.
    """
    (his, los, highs, lows, exponents, mode_keys, lead_words, quads, quad_zeros, moved, points,
     keep) = _text_tables()
    a = np.abs(v)
    fast = (a >= _MAGNITUDE[0]) & (a < _MAGNITUDE[1])  # NaN fails both
    zero = a == 0.0
    a[~fast] = 2.0  # any value that needs no second pass
    i = np.floor(np.log10(a)).astype(np.intp)
    i += _EXP_OFFSET
    p = a * his.take(i)
    ah, al = _split(a)
    hh, hl = highs.take(i), lows.take(i)
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * los.take(i)
    k = np.rint(r)
    d = p.astype(np.int64) + k.astype(np.int64)  # p is an integer where d is kept
    # D = 1e16 is kept where r > rint(r) - _TIE: S = p + R > 1e16 - 2^-45.
    fast &= (d + (r - k > -_TIE) > _D_MIN) & (d < _D_END) & (np.abs(r - np.floor(r) - 0.5) > _TIE)
    d[~fast] = _D_MIN
    d[zero] = 0  # the digits of 0 at e = 0 (|v| = 2 above) read "0"
    fast |= zero
    lead = d // _D_MIN
    d -= lead * _D_MIN
    high = d // 10**8
    d -= high * 10**8
    g0, g2 = high // 10**4, d // 10**4
    groups = (g0, high - g0 * 10**4, g2, d - g2 * 10**4)
    words = np.empty((v.size, _WIDTH // 8), np.uint64)  # each take fills a 1-D array first
    words[:, 0] = lead_words.take(lead)
    quarters = words.view(np.uint32)
    for k, g in enumerate(groups, 2):
        quarters[:, k] = quads.take(g)
    words[:, 3] = exponents.take(i)
    at = np.flatnonzero((i > _EXP_OFFSET) & (i < _EXP_OFFSET + 16))  # a point after digit 1..15
    if at.size:  # move the digits after it one byte on, in place
        i_at, flat = i.take(at), words.ravel()
        at = at * 4 + 1  # word 1 of each value, in flat
        w1, w2 = flat.take(at), flat.take(at + 1)
        m1, m2 = w1 & moved[0].take(i_at), w2 & moved[1].take(i_at)
        flat[at] = w1 ^ m1 | m1 << 8 | points[0].take(i_at)
        flat[at + 1] = w2 ^ m2 | m2 << 8 | m1 >> 56 | points[1].take(i_at)
        flat[at + 2] = m2 >> 56  # digit 16, into the word fixed notation does not print
    zeros = quad_zeros.take(groups[3])  # trailing zeros of the 16 digits after the lead
    nil = groups[3] == 0
    for g in groups[2::-1]:
        zeros += nil * quad_zeros.take(g)
        nil &= g == 0
    key = mode_keys.take(i)
    key -= zeros
    key += np.signbit(v) * (_MODES * 17)
    words &= keep.take(key, axis=0)
    text = words.view(np.uint8)
    exact = np.flatnonzero(~fast)
    texts = np.array(_exact_texts(v[exact]), dtype=f"S{_TEXT}")
    text[exact, :_TEXT] = texts.view(np.uint8).reshape(exact.size, _TEXT)
    return text


def _table_pieces(values, seps, labels, head: str, mid: str, tail: str, out: list) -> None:
    """Append head, the points of the (R, C) float table ``values``, then tail, to out.

    Point (i, j) reads as its separator, the text and mid of its label in
    each label array, (R, 1) for a label per row or (1, C) for one per
    column, then its value; head stands in for the first point's separator.
    ``seps`` holds one separator per column, or, where there are labels, one
    for every column, which leads the first label's slot.  A block of at most
    _BLOCK points, whole rows or a part of one longer row, is laid out in one
    reused buffer as records of these slots, broadcast over its rows and
    columns, and the value's text; one NUL-deleting pass turns it into text.
    Per-row slots are written for every block, the others, in whole-row
    blocks, once and again after the head's block.
    """
    n_rows, n_cols = values.shape
    if labels:
        slots = _label_slots(labels, seps[0], mid)
    else:
        sep_texts = np.array(seps, dtype="S")
        slots = [sep_texts.view(np.uint8).reshape(1, sep_texts.size, -1)]
    width = sum(s.shape[2] for s in slots) + _TEXT
    rows, cols = max(1, _BLOCK // n_cols), min(n_cols, _BLOCK)
    buffer = bytearray(min(rows, n_rows) * cols * width)
    whole = np.frombuffer(buffer, np.uint8)
    out.append(head)
    for r0 in range(0, n_rows, rows):
        r1 = min(r0 + rows, n_rows)
        for c0 in range(0, n_cols, cols):
            c1 = min(c0 + cols, n_cols)
            v = np.asarray(values[r0:r1, c0:c1], dtype=np.float64)
            size = v.size * width
            block = whole[:size].reshape(*v.shape, width)
            start = 0
            for s in slots:
                end = start + s.shape[2]
                if len(s) > 1:  # a label per row
                    block[:, :, start:end] = s[r0:r1]
                elif cols < n_cols or r0 <= rows:  # whole-row blocks reuse the first two's
                    block[:, :, start:end] = s[:, c0:c1] if s.shape[1] > 1 else s
                start = end
            if r0 == c0 == 0:
                block[0, 0, : len(seps[0].encode())] = 0  # the first point follows head
            records = _float_records(v.ravel()).reshape(*v.shape, _WIDTH)
            block[:, :, start:] = records[:, :, :_TEXT]
            text = buffer if size == len(buffer) else buffer[:size]
            out.append(text.translate(None, b"\0").decode("ascii"))
    out.append(tail)


def render_csv(header: str, *columns: np.ndarray) -> str:
    """Header line, then a line per row of the 1-D columns: floats as fmt(), ints as ints.

    The columns form one float64 table whose separators are "\n", ending the
    line before, and ",".  An integer column must lie within +-2^53,
    where "%.17g" of its double reads as "%d".
    """
    if any(c.dtype.kind in "iu" and np.any((c < -(2**53)) | (c > 2**53)) for c in columns):
        raise ValueError("integer columns must lie within +-2^53")
    table = np.column_stack(columns).astype(np.float64, copy=False)
    seps = ["\n"] + [","] * (table.shape[1] - 1)
    out = []
    _table_pieces(table, seps, (), header + "\n", "", "\n" if len(table) else "", out)
    return "".join(out)


@dataclass(frozen=True)
class GridRows:
    """The (x, y, value) rows of a grid in y-major order: x runs fastest.

    ``values[iy, ix]`` belongs to ``(xs[ix], ys[iy])``; both axes are nonempty.
    Emitted, the rows read exactly as the P x 3 float array of them would.
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class _Line:
    """A command's JSON output: the value's text and a newline, joined once."""

    value: object


def _label_slots(labels, before: str, mid: str) -> list:
    """Each label array's slots, its shape with a last axis of bytes: before (first
    array only), the text, NULs to the array's longest, then mid."""
    head, end = np.frombuffer(before.encode(), np.uint8), np.frombuffer(mid.encode(), np.uint8)
    slots = []
    for a in labels:
        texts = np.array([_FLOAT_SLOT % v for v in a.ravel().tolist()], dtype="S")
        width = head.size + texts.itemsize
        slot = np.empty((a.size, width + end.size), np.uint8)
        slot[:, : head.size] = head
        slot[:, head.size : width] = texts.view(np.uint8).reshape(a.size, texts.itemsize)
        slot[:, width:] = end
        slots.append(slot.reshape(*a.shape, slot.shape[1]))
        head = head[:0]
    return slots


def render_grid_csv(header: str, values: np.ndarray, *labels: np.ndarray) -> str:
    """Header line, then a line per point of the (R, C) table ``values``, row by row, as
    render_csv writes it: the point's label in each (R, 1) or (1, C) float array, then its value."""
    out = []
    _table_pieces(values, ["\n"], labels, header + "\n", ",", "\n", out)
    return "".join(out)


@functools.cache
def _array_literals(ndim: int, indent: int) -> tuple:
    """(head, between, within, tail): render_json's texts of a float array of 1 or 2 axes.

    They are cut from the list path's text of a 2 x ... x 2 array of ints:
    the text before its first value, between its rows (for one axis, its
    values), between the values of a row, and after its last value.
    """
    texts = re.split(r"\d+", render_json(np.arange(2**ndim).reshape((2,) * ndim), indent))
    return texts[0], texts[2 ** (ndim - 1)], texts[1], texts[-1]


def _check_finite(*arrays) -> None:
    """Refuse a non-finite float: JSON has no text for it."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("JSON cannot hold a non-finite float")


def render_json(obj, indent: int = 0) -> str:
    """Minimal deterministic JSON renderer with fmt()-formatted floats.

    Complex values are emitted as {"re": ..., "im": ...} objects.  A numpy
    array reads exactly as its .tolist() would, and GridRows as the list of
    its [x, y, value] rows.  Any other dataclass reads as the dict of its
    fields, in field order, and an enum member as its value.  A NaN or an
    infinity raises ValueError: JSON has no text for it.  The text is
    collected piece by piece and joined once, so a large member is copied
    once.
    """
    out = []
    _json_pieces(obj, indent, out)
    return "".join(out)


def _json_pieces(obj, indent: int, out: list) -> None:
    """Append render_json(obj, indent) to out, a piece at a time."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, _Line):
        _json_pieces(obj.value, indent, out)
        out.append("\n")
    elif isinstance(obj, GridRows):
        _check_finite(obj.xs, obj.ys, obj.values)
        head, between, within, tail = _array_literals(2, indent)
        _table_pieces(obj.values, [between], (obj.xs[None], obj.ys[:, None]), head, within, tail,
                      out)
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim in (1, 2) and obj.size:
        _check_finite(obj)
        head, between, within, tail = _array_literals(obj.ndim, indent)
        table = obj.reshape(len(obj), -1)
        _table_pieces(table, [between] + [within] * (table.shape[1] - 1), (), head, "", tail, out)
    elif isinstance(obj, np.ndarray):
        _json_pieces(obj.tolist(), indent, out)
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        _check_finite(obj)
        out.append(fmt(obj))
    elif isinstance(obj, complex):
        _json_pieces({"re": float(obj.real), "im": float(obj.imag)}, indent, out)
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, (dict, list, tuple)) and not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        out.append("{\n")
        for k, v in obj.items():
            out.append(f'{inner}"{k}": ')
            _json_pieces(v, indent + 1, out)
            out.append(",\n")
        out[-1] = "\n" + pad + "}"
    elif isinstance(obj, (list, tuple)):
        out.append("[\n")
        for v in obj:
            out.append(inner)
            _json_pieces(v, indent + 1, out)
            out.append(",\n")
        out[-1] = "\n" + pad + "]"
    elif dataclasses.is_dataclass(obj):
        _json_pieces({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, indent, out)
    elif isinstance(obj, enum.Enum):
        _json_pieces(obj.value, indent, out)
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
