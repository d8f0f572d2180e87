"""Deterministic text serialization: amplitude parsing, JSON and CSV emitters.

Floats are rendered with 17 significant digits so every emitted value parses
back to the identical IEEE-754 double, which makes re-emission byte-stable.
"""

from __future__ import annotations

import re

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


def fmt(value: float) -> str:
    """17-significant-digit rendering; idempotent under parse/format round trips."""
    return format(float(value), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Minimal deterministic JSON renderer with fmt()-formatted floats.

    Complex values are emitted as {"re": ..., "im": ...} objects.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
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
        items = [f'{inner}"{k}": {render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
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

