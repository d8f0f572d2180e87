"""Amplitude parsing and the deterministic emitters.

The ``reference_*`` functions are the per-value emitters the package used
before arrays were formatted in numpy: ``reference_render_json`` is the
list path of ``render_json`` and the three ``reference_*`` CLI emitters are
the row loops of ``multihead wigner``, ``sweep`` and ``fock``.  The CLI's
output must equal theirs byte for byte, and ``float_texts``, the table
emitter's text of each value, must equal ``'%.17g' % v`` on every double.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import hypothesis
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multihead import __version__, closed_form, serialize, sweeps
from multihead.cli import main
from multihead.errors import InvalidInputError
from multihead.serialize import (
    GridRows,
    fmt,
    parse_amplitude,
    render_csv,
    render_grid_csv,
    render_json,
)
from multihead.closed_form import MomentTable
from multihead.roots import PolarAmplitude
from multihead.states import Family, StateSpec
from multihead.sweeps import Quantity, SweepTemplate


class TestParseAmplitude:
    @pytest.mark.parametrize(
        "text,x,y",
        [
            ("1+1i", 1.0, 1.0),
            ("1-1i", 1.0, -1.0),
            ("-0.5+0.25i", -0.5, 0.25),
            ("2", 2.0, 0.0),
            ("-3.5", -3.5, 0.0),
            ("2i", 0.0, 2.0),
            ("-i", 0.0, -1.0),
            ("1+i", 1.0, 1.0),
            ("1e-3+2e2i", 1e-3, 2e2),
        ],
    )
    def test_cartesian_forms(self, text, x, y):
        a = parse_amplitude(text)
        z = a.to_complex()
        assert z.real == pytest.approx(x, abs=1e-12)
        assert z.imag == pytest.approx(y, abs=1e-12)

    def test_polar_form(self):
        a = parse_amplitude("2@1.5")
        assert a.r == 2.0
        assert a.theta_p == pytest.approx(1.5, abs=1e-15)

    def test_polar_negative_angle_remapped(self):
        a = parse_amplitude("1@-1.5707963267948966")
        assert a.theta_p == pytest.approx(3 * math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("text", ["", "1+", "i5", "1+2", "abc", "1++2i", "-1@0.5", "2@@1"])
    def test_ambiguous_forms_rejected(self, text):
        with pytest.raises(InvalidInputError):
            parse_amplitude(text)


class TestFormatting:
    def test_fmt_round_trips(self):
        for x in (0.1, 1 / 3, math.pi, 2.0, -1.0, 1e-300):
            assert float(fmt(x)) == x

    def test_fmt_idempotent(self):
        for x in (0.1, math.sqrt(2), 123456.789):
            once = fmt(x)
            assert fmt(float(once)) == once

    def test_render_json_complex_and_null(self):
        text = render_json({"z": 1 + 2j, "q": None, "flag": True, "items": [1, 2.5]})
        assert '"re": 1' in text
        assert '"im": 2' in text
        assert '"q": null' in text
        assert '"flag": true' in text

    def test_render_json_deterministic(self):
        payload = {"a": [0.1, 0.2], "b": {"c": 3 + 0.5j}}
        assert render_json(payload) == render_json(payload)

    def test_dataclasses_render_as_their_fields_and_enums_as_their_values(self):
        alpha = PolarAmplitude(1.5, 0.7)
        alpha_dict = {"r": 1.5, "theta_p": 0.7}
        table = MomentTable(1 + 2j, 1 - 2j, 3.5 + 0j, -1j, 1j, 0.25 + 0j)
        table_dict = {"a_dag": 1 + 2j, "a": 1 - 2j, "n_mean": 3.5 + 0j, "a_dag2": -1j,
                      "a2": 1j, "a_dag2_a2": 0.25 + 0j}
        pairs = [
            (alpha, alpha_dict),
            (StateSpec(alpha, 3, Family.COHERENT),
             {"alpha": alpha_dict, "n_heads": 3, "family": "coherent"}),
            (SweepTemplate(0.7, 2, Family.INCOHERENT),
             {"theta_p": 0.7, "n_heads": 2, "family": "incoherent"}),
            (table, table_dict),
            (Family.INCOHERENT, "incoherent"),
            (Quantity.MANDEL_Q, "mandel-q"),
            ({"quantity": Quantity.VAR_X1, "moments": table},
             {"quantity": "var-x1", "moments": table_dict}),
        ]
        for indent in (0, 1, 3):
            for obj, want in pairs:
                assert render_json(obj, indent) == reference_render_json(want, indent)

    def test_grid_rows_and_lines_keep_their_own_output(self):
        grid = GridRows(np.array([0.5, -1.0]), np.array([2.0]), np.array([[0.1, 1e-300]]))
        rows = [[0.5, 2.0, 0.1], [-1.0, 2.0, 1e-300]]
        for indent in (0, 2):
            assert render_json(grid, indent) == reference_render_json(rows, indent)
        line = serialize._Line({"rows": grid})
        assert render_json(line) == reference_render_json({"rows": rows}) + "\n"


def reference_fmt(value):
    return format(float(value), ".17g")


def reference_render_json(obj, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return reference_fmt(obj)
    if isinstance(obj, complex):
        return reference_render_json({"re": float(obj.real), "im": float(obj.imag)}, indent)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {reference_render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{reference_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj).__name__}")


def reference_spec(spec):
    alpha = {"r": spec.alpha.r, "theta_p": spec.alpha.theta_p}
    return {"alpha": alpha, "n_heads": spec.n_heads, "family": spec.family.value}


def reference_json(payload):
    return reference_render_json({"tool": "multihead", "version": __version__, **payload}) + "\n"


def reference_wigner(alpha, heads, family, fmt_name, nx, ny, x_range=(-4.0, 4.0),
                     y_range=(-4.0, 4.0)):
    spec = StateSpec(parse_amplitude(alpha), heads, Family.parse(family))
    xs, ys = np.linspace(*x_range, nx), np.linspace(*y_range, ny)
    xx, yy = np.meshgrid(xs, ys)
    values, _ = closed_form.wigner_grid(spec, xs / math.sqrt(2.0), ys / math.sqrt(2.0))
    if fmt_name == "csv":
        lines = ["x,y,w"]
        for iy in range(ny):
            for ix in range(nx):
                lines.append(
                    f"{reference_fmt(xx[iy, ix])},{reference_fmt(yy[iy, ix])},"
                    f"{reference_fmt(values[iy, ix])}"
                )
        return "\n".join(lines) + "\n"
    grid = {"x_min": x_range[0], "x_max": x_range[1], "y_min": y_range[0], "y_max": y_range[1],
            "nx": nx, "ny": ny}
    rows = [
        [float(xx[iy, ix]), float(yy[iy, ix]), float(values[iy, ix])]
        for iy in range(ny)
        for ix in range(nx)
    ]
    return reference_json({"spec": reference_spec(spec), "grid": grid, "rows": rows})


def reference_sweep(heads, family, quantity, r_max, step, fmt_name):
    template = sweeps.SweepTemplate(theta_p=0.0, n_heads=heads, family=Family.parse(family))
    quantity = sweeps.Quantity.parse(quantity)
    result = sweeps.sweep(template, quantity, 0.0, r_max, step)
    threshold = {"mandel-q": 0.0, "var-x1": 0.5, "var-x2": 0.5}.get(quantity.value)
    crossings = sweeps.find_crossings(result, threshold) if threshold is not None else []
    if fmt_name == "csv":
        lines = ["r,value"]
        lines += [f"{reference_fmt(r)},{reference_fmt(v)}" for r, v in result.samples]
        return "\n".join(lines) + "\n"
    return reference_json(
        {
            "quantity": quantity.value,
            "template": {"theta_p": 0.0, "n_heads": heads, "family": family},
            "r_min": 0.0,
            "r_max": r_max,
            "step": step,
            "threshold": threshold,
            "samples": [[float(r), float(v)] for r, v in result.samples],
            "crossings": [float(c) for c in crossings],
        }
    )


def reference_fock(alpha, heads, family, max_m, fmt_name):
    spec = StateSpec(parse_amplitude(alpha), heads, Family.parse(family))
    index = np.arange(max_m + 1)
    magnitudes = np.abs(closed_form.fock_element(spec, index[:, None], index))
    diag = closed_form.pnd(spec, index)
    if fmt_name == "csv":
        lines = ["m,n,abs_p_mn"]
        lines += [f"{m},{n},{reference_fmt(v)}" for (m, n), v in np.ndenumerate(magnitudes)]
        lines.append("m,p_mm")
        lines += [f"{m},{reference_fmt(p)}" for m, p in enumerate(diag)]
        return "\n".join(lines) + "\n"
    return reference_json(
        {
            "spec": reference_spec(spec),
            "max_m": max_m,
            "abs_fock_elements": magnitudes.tolist(),
            "pnd": diag.tolist(),
        }
    )


SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 1e300, 0.1]
NON_FINITE = [math.nan, math.inf, -math.inf]


def finite_only(values):
    """The values with each non-finite one replaced by 0."""
    values = np.asarray(values)
    return np.where(np.isfinite(values), values, 0.0).astype(values.dtype)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    arr=st.sampled_from([(0,), (0, 3), (3, 0), (1,), (5, 3), (2, 2, 2)]).flatmap(
        lambda shape: arrays(
            np.float64,
            shape,
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
            | st.sampled_from(SPECIAL),
        )
    ),
    indent=st.integers(0, 3),
)
def test_array_renders_as_its_list(arr, indent):
    # JSON has no text for NaN or an infinity, so an array holding one is
    # refused; its finite values render as their list.
    if not np.isfinite(arr).all():
        for obj in (arr, arr.tolist()):
            with pytest.raises(ValueError):
                render_json(obj, indent)
        arr = finite_only(arr)
    want = reference_render_json(arr.tolist(), indent)
    assert render_json(arr, indent) == want
    assert render_json(arr.tolist(), indent) == want


def test_array_special_values_and_non_float_arrays():
    arr = finite_only(SPECIAL).reshape(3, 3)
    assert render_json(arr) == reference_render_json(arr.tolist())
    for other in (np.arange(4).reshape(2, 2), np.array([1 + 2j, -0.5j]), np.array(2.5)):
        assert render_json(other, 1) == reference_render_json(other.tolist(), 1)
    for bad in NON_FINITE:
        refused = [bad, [1.0, bad], {"v": bad}, complex(0.0, bad), np.array(bad),
                   np.array([[1.0, bad]]), np.array([1.0, bad], np.float32),
                   np.full((2, 2, 2), bad), np.array([1j, bad])]
        for obj in refused:
            with pytest.raises(ValueError):
                render_json(obj)


def assert_same_text(got, want):
    """got == want, exactly; a mismatch reports both lengths and the first differing offset.

    pytest's own report of a failed ``==`` diffs the two strings, which takes
    tens of seconds on the multi-megabyte outputs compared here.
    """
    if got == want:
        return
    lo, hi = 0, min(len(got), len(want))  # got[:lo] == want[:lo]; they differ at or before hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if got[:mid] == want[:mid] else (lo, mid - 1)
    around = slice(max(lo - 40, 0), lo + 40)
    pytest.fail(f"texts differ at offset {lo} (lengths {len(got)} and {len(want)}):\n"
                f"  got:  {got[around]!r}\n  want: {want[around]!r}", pytrace=False)


def cli_output(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def grid_argv(nx, ny, x_range, y_range):
    return ("--nx", str(nx), "--ny", str(ny), f"--x-min={x_range[0]!r}", f"--x-max={x_range[1]!r}",
            f"--y-min={y_range[0]!r}", f"--y-max={y_range[1]!r}")


SQUARE = (-4.0, 4.0)


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize(
    "alpha,heads,family,nx,ny,x_range,y_range",
    [
        pytest.param("2@0.7", 12, "coherent", 13, 9, SQUARE, SQUARE, id="2@0.7-12-coherent"),
        pytest.param("0", 3, "coherent", 13, 9, SQUARE, SQUARE, id="0-3-coherent"),
        pytest.param("1e-300@0.3", 2, "incoherent", 13, 9, SQUARE, SQUARE,
                     id="1e-300@0.3-2-incoherent"),
        pytest.param("1+1i", 3, "coherent", 7, 3, SQUARE, SQUARE, id="7x3"),
        pytest.param("1+1i", 2, "incoherent", 2, 2, SQUARE, SQUARE, id="2x2"),
        pytest.param("2@0.7", 6, "coherent", 11, 5, (-1.0, 5.0), (-3.0, 0.25), id="asymmetric"),
        pytest.param("3@0.4", 2, "coherent", 201, 201, SQUARE, SQUARE, id="default-201x201"),
    ],
)
def test_wigner_output_equals_the_row_loop(capsys, alpha, heads, family, nx, ny, x_range, y_range,
                                           fmt_name):
    grid = () if (nx, ny) == (201, 201) else grid_argv(nx, ny, x_range, y_range)
    out = cli_output(capsys, "wigner", "--alpha", alpha, "--heads", str(heads), "--family", family,
                     "--format", fmt_name, *grid)
    assert_same_text(out, reference_wigner(alpha, heads, family, fmt_name, nx, ny, x_range, y_range))


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_wigner_out_file_holds_the_stdout_bytes(capsys, tmp_path, fmt_name):
    argv = ("wigner", "--alpha", "2@0.7", "--heads", "3", "--family", "coherent",
            "--format", fmt_name, *grid_argv(7, 5, (-1.0, 5.0), (-3.0, 0.25)))
    out = cli_output(capsys, *argv)
    path = tmp_path / f"w.{fmt_name}"
    assert cli_output(capsys, *argv, "--out", str(path)) == ""
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("quantity", ["mandel-q", "var-x1", "parity"])
def test_sweep_output_equals_the_row_loop(capsys, quantity, fmt_name):
    # The two-head cat's Mandel Q is undefined at r = 0, so that sample is a gap.
    out = cli_output(capsys, "sweep", "--heads", "2", "--family", "coherent", "--quantity", quantity,
                     "--r-max", "3", "--step", "0.1", "--format", fmt_name)
    assert_same_text(out, reference_sweep(2, "coherent", quantity, 3.0, 0.1, fmt_name))
    if quantity == "mandel-q" and fmt_name == "csv":
        assert out.splitlines()[1].startswith("0.10000000000000001,")


# One element, whose head stands in for the only separator; exactly one
# formatter block (128^2 elements), and two.
@pytest.mark.parametrize("max_m", [0, 1, 12, 127, 128, 150])
@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("family", ["incoherent", "coherent"])
def test_fock_output_equals_the_row_loop(capsys, family, fmt_name, max_m):
    out = cli_output(capsys, "fock", "--alpha", "3@0.4", "--heads", "3", "--family", family,
                     "--max-m", str(max_m), "--format", fmt_name)
    assert_same_text(out, reference_fock("3@0.4", 3, family, max_m, fmt_name))


def float_texts(values):
    """The table emitter's text of each value: a one-column table whose separator is " "."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    out = []
    serialize._table_pieces(flat[:, None], [" "], (), "", "", "", out)
    return "".join(out).split(" ") if flat.size else []


def assert_texts_exact(values):
    """float_texts(values) is '%.17g' % v of every value, compared a chunk at a time."""
    values = np.asarray(values, dtype=float)
    for start in range(0, values.size, 100_000):
        chunk = values[start : start + 100_000]
        got = float_texts(chunk)
        want = [reference_fmt(v) for v in chunk.tolist()]
        bad = [(w, g) for g, w in zip(got, want) if g != w]
        assert not bad, bad[:5]  # (expected, got)


def record_exact_path(monkeypatch):
    """Every value sent to _exact_texts from here on."""
    sent = []
    exact_texts = serialize._exact_texts

    def recording(values):
        sent.extend(values.tolist())
        return exact_texts(values)

    monkeypatch.setattr(serialize, "_exact_texts", recording)
    return sent


def with_negatives(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def multiples_of_powers_of_two(mantissa):
    """mantissa * 2^k for every k where the product is a finite double (subnormals rounded)."""
    return [math.ldexp(mantissa, k) for k in range(-1074, 1025 - mantissa.bit_length())]


def neighbours(x, steps=2):
    """x and the doubles up to `steps` ulps either side of it."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def seventeen_digit_ties():
    """Doubles v = t 2^(e-17) with v 10^(16-e) = D + 1/2 for a 17-digit integer D."""
    out = []
    for e in range(-8, 15):
        five = 5 ** (16 - e)
        lo, hi = -(-2 * 10**16 // five), min(2**53, 2 * 10**17 // five)
        for t in np.linspace(lo, hi - 1, 40).astype(np.int64).tolist():
            t |= 1
            if lo <= t < hi:
                out.append(math.ldexp(t, e - 17))
                assert (t * five) % 2 == 1  # D + 1/2 exactly
    return out


def near_ties():
    """Doubles v = m 2^(-j-q) with v 10^q = m 5^q / 2^j within 5 * 2^-j (j >= 48) of D + 1/2.

    They sit within the product's error bound of a tie without being one.
    """
    out = []
    for q in range(16, 29):
        five = 5**q
        for j in range(48, 64):
            inverse = pow(five, -1, 2**j)
            for delta in (-5, -3, -1, 1, 3, 5):
                m = (2 ** (j - 1) + delta) * inverse % 2**j
                while m < 2**53:
                    if 10**16 * 2**j <= m * five < 10**17 * 2**j:
                        out.append(math.ldexp(m, -j - q))
                    m += 2**j
    return out


class TestFloatTexts:
    """float_texts against CPython's '%.17g', value by value."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        assert_texts_exact(rng.integers(0, 2**64, 1_000_000, dtype=np.uint64).view(np.float64))

    def test_random_doubles_in_the_fast_range(self):
        # Biased exponents 193..1853: |v| from about 1e-250 to 1e250.
        rng = np.random.default_rng(17)
        n = 500_000
        bits = (
            (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
            | (rng.integers(193, 1854, n, dtype=np.uint64) << np.uint64(52))
            | rng.integers(0, 2**52, n, dtype=np.uint64)
        )
        assert_texts_exact(bits.view(np.float64))

    @pytest.mark.parametrize("mantissa", [1, 2**53 - 1, 3, 5, 7, 25, 125, 625, 3125, 78125])
    def test_multiples_of_powers_of_two(self, mantissa):
        assert_texts_exact(with_negatives(multiples_of_powers_of_two(mantissa)))

    def test_powers_of_ten_and_their_neighbours(self):
        values = [y for k in range(-300, 300) for y in neighbours(float(f"1e{k}"))]
        assert_texts_exact(with_negatives(values))

    def test_powers_of_ten_in_the_fast_range_and_six_ulps_either_side(self, monkeypatch):
        # A significand of exactly 1e16 stays on the fast path where S >= 1e16:
        # of the powers themselves, only doubles below their power reach CPython.
        powers = [float(f"1e{k}") for k in range(-250, 250)]
        below = {x for k, x in zip(range(-250, 250), powers) if Fraction(x) < Fraction(10) ** k}
        sent = record_exact_path(monkeypatch)
        float_texts(powers)
        assert sent and set(sent) <= below
        values = with_negatives([y for x in powers for y in neighbours(x, 6)])
        assert values.size == 13_000
        assert_texts_exact(values)

    def test_seventeen_digit_ties_and_near_ties(self):
        ties, close = seventeen_digit_ties(), near_ties()
        assert len(ties) > 300 and len(close) > 300
        assert_texts_exact(with_negatives([y for t in ties for y in neighbours(t, 1)] + close))

    def test_carries_into_the_next_digit_and_exponent(self):
        # 1.99999999999999997 rounds to "2"; 9.99999999999999997e15 to 1e16.
        values = [
            y
            for lead in range(1, 10)
            for k in range(-30, 30)
            for tail in ("949", "95", "951", "97", "99")
            for y in neighbours(float(f"{lead}.999999999999999{tail}e{k}"), 1)
        ]
        assert_texts_exact(with_negatives(values))

    def test_just_below_large_powers_of_ten(self):
        # Up to 300 ulps below 10^k, log10 rounds up to k for most values; the
        # significand at that exponent is <= 1e16, so they take the exact path.
        values, rounds_up = [], 0
        for k in range(100, 301):
            y = float(f"1e{k}")
            for _ in range(300):
                y = math.nextafter(y, 0.0)
                values.append(y)
                rounds_up += math.floor(np.log10(y)) == k
        assert rounds_up > 40_000
        assert_texts_exact(with_negatives(values))

    def test_a_point_after_every_integer_digit(self):
        # Fixed notation at 10 <= |v| < 1e17 puts the point after digit x = 1..16
        # (never printed at 16): the digits after it move one byte along, and
        # digit 16 into the exponent's word.
        rng = np.random.default_rng(30)
        digits = "98765432109876543"
        values = []
        for x in range(1, 17):
            whole = rng.integers(10**x, 10 ** (x + 1), 200)
            values += whole.astype(float).tolist()  # no fraction digits
            values += (whole + rng.random(200)).tolist()  # fraction digits, where x < 16
            values += [float(f"{digits[: x + 1]}.{digits[x + 1 :]}"), float(f"1{'0' * x}.5")]
            values += neighbours(10.0**x, 3)  # 10^x itself: a significand of exactly 1e16
        values += [y for x in (1e16, 1e17) for y in neighbours(x, 3)]
        assert {keep_table_key(v)[1] - 4 for v in values} >= set(range(1, 17))
        assert_texts_exact(with_negatives(values))

    def test_fixed_and_exponent_switch_points(self):
        values = [y for x in (1e-5, 1e-4, 1e16, 1e17) for y in neighbours(x, 3)]
        assert_texts_exact(with_negatives(values))

    def test_special_values(self):
        rng = np.random.default_rng(5)
        subnormals = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
        values = [0.0, math.inf, math.nan, 5e-324, 2.225073858507201e-308,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1e-250, 1e250]
        assert_texts_exact(with_negatives(np.concatenate([values, subnormals])))

    def test_blocks_join_in_order(self):
        values = np.arange(7 * 7100) * 0.1  # three blocks and a part
        assert float_texts(values.reshape(7, -1)) == [reference_fmt(v) for v in values]
        assert float_texts(np.empty(0)) == []


@pytest.mark.parametrize("shape", [(20_000,), (3000, 7), (2, 10_000), (40, 30, 20)])
def test_arrays_of_several_blocks_render_as_their_lists(shape):
    rng = np.random.default_rng(len(shape))
    arr = rng.standard_normal(shape) * np.exp(rng.uniform(-50.0, 50.0, shape))
    for indent in (0, 1):
        assert render_json(arr, indent) == reference_render_json(arr.tolist(), indent)


def test_csv_of_several_blocks_reads_as_its_rows():
    n = 2 * serialize._BLOCK + 3
    index, values = np.arange(n), np.random.default_rng(9).standard_normal(n)
    want = "i,v\n" + "".join(f"{i},{reference_fmt(v)}\n" for i, v in enumerate(values.tolist()))
    assert render_csv("i,v", index, values) == want
    assert render_csv("i,v", index[:0], values[:0]) == "i,v\n"


def test_special_values_in_csv_columns():
    values = np.array(SPECIAL)
    text = render_csv("i,v,w", np.arange(values.size), values, values[::-1])
    rows = zip(range(values.size), values.tolist(), values[::-1].tolist())
    assert text == "i,v,w\n" + "".join(
        f"{i},{reference_fmt(v)},{reference_fmt(w)}\n" for i, v, w in rows
    )


@pytest.mark.parametrize("nx,ny", [(3, 3), (120, 150), (17_000, 2)])
def test_special_values_in_grid_rows(nx, ny):
    # 120 x 150 spans two blocks of whole rows; one 17000-value row spans two blocks.
    rng = np.random.default_rng(nx)
    values = rng.standard_normal((ny, nx)) * np.exp(rng.uniform(-700.0, 700.0, (ny, nx)))
    values.flat[rng.choice(values.size, len(SPECIAL), replace=False)] = SPECIAL
    if nx == 3:
        xs, ys = np.array(SPECIAL[:3]), np.array(SPECIAL[-3:])
    else:
        xs, ys = np.linspace(-4.0, 4.0, nx), np.linspace(-1.0, 7.0, ny)
    rows = [[x, y, values[iy, ix]] for iy, y in enumerate(ys.tolist())
            for ix, x in enumerate(xs.tolist())]
    csv_want = "x,y,w\n" + "".join(f"{reference_fmt(x)},{reference_fmt(y)},{reference_fmt(w)}\n"
                                   for x, y, w in rows)
    assert render_grid_csv("x,y,w", values, xs[None], ys[:, None]) == csv_want
    # JSON refuses NaN and the infinities, on either axis or among the values.
    xs, ys, values = finite_only(xs), finite_only(ys), finite_only(values)
    for bad in NON_FINITE:
        last = values.copy()
        last[-1, -1] = bad
        for refused in (GridRows(xs, ys, last), GridRows(np.append(xs[:-1], bad), ys, values),
                        GridRows(xs, np.append(ys[:-1], bad), values)):
            with pytest.raises(ValueError):
                render_json(refused)
    rows = [[x, y, float(values[iy, ix])] for iy, y in enumerate(ys.tolist())
            for ix, x in enumerate(xs.tolist())]
    for indent in (0, 2):
        assert render_json(GridRows(xs, ys, values), indent) == reference_render_json(rows, indent)


# Axis values whose texts run from 1 to 24 characters.
AXIS_VALUES = [0.0, -0.0, 1.0, -7.0, 0.5, -3.96, 1e-300, -2.2250738585072014e-308, 1e22, math.pi]
GRID_SHAPES = [(1, 1), (1, 3), (1, serialize._BLOCK + 3), (2, 3), (7, 5), (128, 129),
               (serialize._BLOCK // 3, 4), (serialize._BLOCK - 1, 2), (serialize._BLOCK, 2),
               (serialize._BLOCK + 1, 2), (2 * serialize._BLOCK + 5, 1)]


def table_block_ends(n_rows, n_cols):
    """The (i, j) of the first and last point of each block of an (n_rows, n_cols) table.

    Every float output is such a table: a grid's values (iy, ix), a CSV's
    columns and a JSON float array of two axes, or of one as a single column.
    """
    rows, cols = max(1, serialize._BLOCK // n_cols), min(n_cols, serialize._BLOCK)
    return [(i, j) for r0 in range(0, n_rows, rows) for c0 in range(0, n_cols, cols)
            for i, j in ((r0, c0), (min(r0 + rows, n_rows) - 1, min(c0 + cols, n_cols) - 1))]


def with_exact_path_at(values, points, exact):
    """A copy of the table ``values`` with exact-path values, in turn, at the points."""
    values = np.array(values, dtype=float)
    for k, point in enumerate(points):
        values[point] = exact[k % len(exact)]
    return values


# No shrinking: each shrink candidate renders whole grids again, so a
# failure is reported as the example that was drawn.  A fixed hypothesis seed,
# not derandomize (which seeds from a hash of the test's source), so the drawn
# grids, and the test's run time, stay the same when the test is edited.  The
# explicit examples make sure both kinds of multi-block grid are checked:
# blocks of whole rows, and one row cut into parts.
@hypothesis.seed(20261019)
@settings(max_examples=40, deadline=None, database=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(
    shape=st.sampled_from(GRID_SHAPES) | st.tuples(st.integers(1, 40), st.integers(1, 12)),
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float64, np.float32]),
    layout=st.sampled_from(["contiguous", "transposed", "strided"]),
)
@example(shape=(serialize._BLOCK // 3, 4), seed=1, dtype=np.float32, layout="transposed")
@example(shape=(2 * serialize._BLOCK + 5, 1), seed=2, dtype=np.float64, layout="strided")
def test_grid_rows_render_as_their_row_loop(shape, seed, dtype, layout):
    # Blocks of whole rows, and rows longer than a block cut into parts; the
    # values of every block's first and last point take CPython's text.
    nx, ny = shape
    rng = np.random.default_rng(seed)
    xs, ys = (rng.choice(AXIS_VALUES + list(rng.standard_normal(4)), n) for n in (nx, ny))
    values = rng.standard_normal((ny, nx)) * np.exp(rng.uniform(-80.0, 80.0, (ny, nx)))

    def grid_rows(exact):
        grid_values = with_exact_path_at(values, table_block_ends(ny, nx), exact).astype(dtype)
        if layout == "transposed":
            grid_values = np.ascontiguousarray(grid_values.T).T
        elif layout == "strided":
            grid_values = np.repeat(grid_values, 2, axis=1)[:, ::2]
        rows = [[x, y, float(grid_values[iy, ix])] for iy, y in enumerate(ys.tolist())
                for ix, x in enumerate(xs.tolist())]
        return GridRows(xs, ys, grid_values), rows

    grid, rows = grid_rows(EXACT_PATH)
    csv_want = "x,y,w\n" + "".join(
        f"{reference_fmt(x)},{reference_fmt(y)},{reference_fmt(w)}\n" for x, y, w in rows)
    csv = render_grid_csv("x,y,w", grid.values, grid.xs[None], grid.ys[:, None])
    assert_same_text(csv, csv_want)
    grid, rows = grid_rows(FINITE_EXACT_PATH)  # JSON refuses the rest
    for indent in range(4):
        assert_same_text(render_json(grid, indent), reference_render_json(rows, indent))


@pytest.mark.parametrize("nx,ny", [(2 * serialize._BLOCK + 5, 2), (3, serialize._BLOCK + 1)])
def test_no_grid_block_holds_more_than_a_block_of_values(monkeypatch, nx, ny):
    sizes = []
    float_records = serialize._float_records

    def counting(values):
        sizes.append(values.size)
        return float_records(values)

    monkeypatch.setattr(serialize, "_float_records", counting)
    render_grid_csv("x,y,w", np.zeros((ny, nx)), np.zeros((1, nx)), np.zeros((ny, 1)))
    assert max(sizes) <= serialize._BLOCK and sum(sizes) == nx * ny


def test_default_grid_sends_almost_nothing_down_the_exact_path(capsys, monkeypatch):
    # Only the value blocks reach _exact_texts: the axes are formatted by CPython.
    sent = []
    exact_texts = serialize._exact_texts

    def counting(values):
        sent.extend(values.tolist())
        return exact_texts(values)

    monkeypatch.setattr(serialize, "_exact_texts", counting)
    render_csv("v", np.array(SPECIAL))
    assert len(sent) >= 5  # the patched helper is the one the emitters call
    sent.clear()
    for fmt_name in ("csv", "json"):
        cli_output(capsys, "wigner", "--alpha", "3@0.4", "--heads", "2", "--family", "coherent",
                   "--format", fmt_name)
    assert len(sent) <= 4  # of 2 x 40401 values


# Values at the formatter's edges: 99.99999999999999 (log10 rounds up to 2),
# 1e-248 (the double lies below 10^-248, and its 17-digit significand at -248
# is exactly 1e16), infinities, NaN and a subnormal take CPython's text;
# signed zeros take the fast path's special case.
EXACT_PATH = [99.99999999999999, 1e-248, 0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]
FINITE_EXACT_PATH = [v for v in EXACT_PATH if math.isfinite(v)]


def test_exact_path_values_reach_cpython(monkeypatch):
    sent = record_exact_path(monkeypatch)
    assert float_texts(EXACT_PATH) == [reference_fmt(v) for v in EXACT_PATH]
    assert len(sent) == len(EXACT_PATH) - 2  # all but the zeros


@pytest.mark.parametrize(
    "shape",
    [(2, 3, 2, 2), (1, 1, 1, 5), (3, 2, 4, 1), (2,) * 8, (2,) * 9, (2 * serialize._BLOCK,),
     (2, serialize._BLOCK), (3, serialize._BLOCK + 1), (serialize._BLOCK // 3 + 1, 3)],
    ids=str,
)
def test_arrays_with_exact_path_values_at_block_ends_render_as_their_lists(shape):
    # An array of one or two axes is a table of blocks of whole rows, or of
    # parts of a row longer than a block; a block's first value follows the
    # text between two rows and its last one precedes it, or the tail.
    # Arrays of more axes take the list path.
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(shape) * 1e5
    table = values.reshape(shape[0], -1)
    arr = with_exact_path_at(table, table_block_ends(*table.shape), FINITE_EXACT_PATH)
    arr = arr.reshape(shape)
    for indent in range(4):
        assert render_json(arr, indent) == reference_render_json(arr.tolist(), indent)
    for bad in NON_FINITE:  # JSON refuses the other exact-path values
        arr.flat[-1] = bad
        with pytest.raises(ValueError):
            render_json(arr)


@pytest.mark.parametrize("shape", [(3, 0), (0, 2), (2, 0, 4), (2, 3, 0), (1, 2, 3, 0)], ids=str)
def test_arrays_with_an_empty_axis_render_as_their_lists(shape):
    arr = np.empty(shape)
    for indent in range(4):
        assert render_json(arr, indent) == reference_render_json(arr.tolist(), indent)


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_csv_blocks_with_exact_path_values_at_their_ends(columns):
    # The block ends of the table of the columns alone, and of the table with
    # an index column first, whose points in that column are the index.
    rows = 2 * serialize._BLOCK // columns + 5
    ends = table_block_ends(rows, columns)
    ends += [(i, j - 1) for i, j in table_block_ends(rows, columns + 1) if j]
    table = with_exact_path_at(
        np.random.default_rng(columns).standard_normal((rows, columns)), ends, EXACT_PATH
    )
    want = "".join(",".join(reference_fmt(v) for v in row) + "\n" for row in table.tolist())
    assert render_csv("v", *table.T) == "v\n" + want
    index = np.arange(rows)
    want = "".join(f"{i}," + ",".join(reference_fmt(v) for v in row) + "\n"
                   for i, row in zip(index.tolist(), table.tolist()))
    assert render_csv("i,v", index, *table.T) == "i,v\n" + want


def test_csv_refuses_integers_a_double_cannot_hold():
    for big in (2**53 + 1, -(2**53) - 1, np.iinfo(np.int64).min, np.iinfo(np.uint64).max):
        with pytest.raises(ValueError):
            render_csv("i", np.array([big]))
    text = render_csv("i", np.array([-(2**53), 0, 2**53]))
    assert text == "i\n-9007199254740992\n0\n9007199254740992\n"


def keep_table_key(v):
    """(sign, mode, last nonzero digit) of '%.17g' % v: the key of its keep-mask row."""
    mantissa, exponent = ("%.16e" % abs(v)).split("e")
    x = int(exponent)
    mode = x + 4 if -4 <= x < 17 else 21 if abs(x) < 100 else 22
    return math.copysign(1.0, v) < 0, mode, len(mantissa.replace(".", "").rstrip("0") or "0") - 1


def every_key_values():
    """Digit patterns of 1 to 17 digits at every exponent, and many at each
    fixed-notation exponent, which reach every (sign, mode, last digit) key
    of the keep table, then the exact-path and special values; with negatives."""
    rng = np.random.default_rng(17)
    values = []
    for k in range(1, 18):
        for digits in ("12345678901234567"[:k], "9" * k):
            values += [float(f"{digits}e{e - k + 1}") for e in range(-330, 311)]
        for _ in range(40):
            last = rng.integers(1, 10)  # k digits: a leading 1 where k > 1, a nonzero last one
            digits = str(rng.integers(10 ** (k - 1), 2 * 10 ** (k - 1)) // 10 * 10 + last)
            values += [float(f"{digits}e{x - k + 1}") for x in range(-4, 17)]
    return with_negatives(values + EXACT_PATH + SPECIAL)


def test_a_nul_never_stands_for_a_kept_byte():
    # The block's text is its records with every NUL deleted, so a NUL inside a
    # value's text would vanish without an error.
    values = every_key_values()
    keys = {keep_table_key(v) for v in values.tolist() if math.isfinite(v)}
    assert len(keys) == 2 * serialize._MODES * 17
    records = serialize._float_records(values)
    texts = [reference_fmt(v) for v in values.tolist()]
    assert not records[:, serialize._TEXT :].any()  # no text reaches past _TEXT bytes
    assert np.count_nonzero(records[:, :-1], axis=1).tolist() == [len(t) for t in texts]
    assert records.tobytes().translate(None, b"\0") == "".join(texts).encode()


ROW_LABELS = {
    "every key": every_key_values,
    "none": lambda: np.empty(0),
    "fock": lambda: np.arange(2000),  # the Fock block's integer labels at --max-m 1999
    "exact path": lambda: np.array([1.0, -1.0, 0.1, -0.0, 5e-324]),
}
MIDS = [",", ",\n      ", ""]


@pytest.mark.parametrize(
    "mid,rows",
    [(mid, "every key") for mid in MIDS] + [(",", rows) for rows in list(ROW_LABELS)[1:]],
    ids=MIDS + list(ROW_LABELS)[1:])
def test_label_slots_hold_each_text_left_aligned(mid, rows):
    # A label slot is the label's text, NULs, then mid at the column past its
    # array's longest text: the NUL-deleting pass reads text + mid.  Each
    # array is padded to its own longest text, and keeps its shape; the
    # first array's slots start with the separator.
    values = ROW_LABELS[rows]()
    if rows == "every key":
        assert values.size > 2 * serialize._BLOCK
    short = np.arange(7.0)
    slots = serialize._label_slots((values[:, None], short[None]), "\n", mid)
    for before, labels, got in zip(("\n", ""), (values[:, None], short[None]), slots):
        texts = [reference_fmt(v).encode() for v in labels.ravel().tolist()]
        width = max(map(len, texts), default=1)  # an empty array's texts are one NUL wide
        assert got.shape == (*labels.shape, len(before) + width + len(mid))
        padded = [before.encode() + t + bytes(width - len(t)) + mid.encode() for t in texts]
        assert got.tobytes() == b"".join(padded)



def random_values_with_specials(n, seed):
    """n doubles: random bit patterns, every third one a normal spread, the specials first."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    spread = values[1::3].size
    values[1::3] = rng.standard_normal(spread) * np.exp(rng.uniform(-30, 30, spread))
    specials = with_negatives(EXACT_PATH + SPECIAL)
    values[: specials.size] = specials[:n]
    return values


TABLE_SHAPES = {
    "whole blocks": (3 * (serialize._BLOCK // 4), 4),
    "a partial last block": (2 * (serialize._BLOCK // 4) + 5, 4),
    "rows longer than a block": (3, serialize._BLOCK + 7),
    "one column": (2 * serialize._BLOCK + 3, 1),
    "zero rows": (0, 3),
}


@pytest.mark.parametrize("order", ["no labels", "grid order", "fock order"])
@pytest.mark.parametrize("shape", TABLE_SHAPES.values(), ids=TABLE_SHAPES.keys())
def test_table_points_read_as_their_slots_and_texts(shape, order):
    # Separators that differ from column to column, or labels that differ
    # from column to column and row to row, the per-column ones first (as a
    # grid's x) or the per-row ones (as the Fock block's m): a slot the reused
    # block buffer kept from a block before would show, and only the very
    # first point's separator yields to the head.  Where rows are longer than
    # a block, every part of a row rewrites its per-row label.
    n_rows, n_cols = shape
    values = random_values_with_specials(n_rows * n_cols, n_cols).reshape(shape)
    seps = [f"|{j}:" for j in range(n_cols)] if order == "no labels" else ["|:|"] * n_cols
    col_labels = random_values_with_specials(n_cols, 7)[None]
    row_labels = random_values_with_specials(n_rows, 8)[:, None]
    labels = {"no labels": (), "grid order": (col_labels, row_labels),
              "fock order": (row_labels, col_labels)}[order]
    out = []
    serialize._table_pieces(values, seps[:1] if labels else seps, labels, "HEAD", "~", "TAIL", out)
    texts = [[reference_fmt(v) + "~" for v in a.ravel().tolist()] for a in labels]
    points = [(seps[j] if i or j else "")
              + "".join(t[i if len(a) > 1 else j] for a, t in zip(labels, texts))
              + reference_fmt(v)
              for i, row in enumerate(values.tolist()) for j, v in enumerate(row)]
    assert_same_text("".join(out), "HEAD" + "".join(points) + "TAIL")
