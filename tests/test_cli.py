import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import multihead
from multihead import cli, errors, serialize
from multihead.cli import main
from multihead.roots import HEADS_MAX


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestRoots:
    def test_four_heads(self, capsys):
        code, out = run(capsys, "roots", "--alpha", "1+1i", "--heads", "4")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["roots"]) == 4
        angles = sorted(
            math.atan2(z["im"], z["re"]) % (2 * math.pi) for z in payload["roots"]
        )
        want = sorted((math.pi / 16 + k * math.pi / 2) % (2 * math.pi) for k in range(4))
        for got, expect in zip(angles, want):
            assert got == pytest.approx(expect, abs=1e-12)

    def test_single_head(self, capsys):
        code, out = run(capsys, "roots", "--alpha", "1+1i", "--heads", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["roots"][0]["re"] == pytest.approx(1.0, abs=1e-12)
        assert payload["roots"][0]["im"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_heads_is_usage_error(self, capsys):
        code, _ = run(capsys, "roots", "--alpha", "1+1i", "--heads", "0")
        assert code == 2

    def test_bad_amplitude_is_usage_error(self, capsys):
        code, _ = run(capsys, "roots", "--alpha", "nope", "--heads", "2")
        assert code == 2


class TestStats:
    def test_two_head_cat(self, capsys):
        code, out = run(capsys, "stats", "--alpha", "1+1i", "--heads", "2", "--family", "coherent")
        assert code == 0
        payload = json.loads(out)
        r = math.sqrt(2)
        assert payload["mean_photon"] == pytest.approx(r * math.tanh(r), abs=1e-12)

    def test_three_head_mixture_is_poissonian(self, capsys):
        code, out = run(capsys, "stats", "--alpha", "1+1i", "--heads", "3", "--family", "incoherent")
        payload = json.loads(out)
        assert abs(payload["mandel_q"]) < 1e-10

    def test_vacuum_mandel_is_null(self, capsys):
        code, out = run(capsys, "stats", "--alpha", "0", "--heads", "5", "--family", "coherent")
        payload = json.loads(out)
        assert code == 0
        assert payload["mandel_q"] is None
        assert payload["parity"] == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_output(self, capsys):
        _, out1 = run(capsys, "stats", "--alpha", "2@0.7", "--heads", "4", "--family", "coherent")
        _, out2 = run(capsys, "stats", "--alpha", "2@0.7", "--heads", "4", "--family", "coherent")
        assert out1 == out2

    @pytest.mark.parametrize("r", [0.0, 0.05, 3.0])
    @pytest.mark.parametrize("family", list(multihead.Family), ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [1, 2, 3, 12])
    def test_statistics_are_the_sweep_values_at_the_modulus(self, capsys, n, family, r):
        code, out = run(capsys, "stats", "--alpha", f"{r!r}@0.7", "--heads", str(n),
                        "--family", family.value)
        payload = json.loads(out)
        template = multihead.SweepTemplate(0.7, n, family)
        fields = [k for k in payload if k not in ("tool", "version", "spec", "moments")]
        assert code == 0 and fields == [q.value.replace("-", "_") for q in multihead.Quantity]
        for quantity in multihead.Quantity:
            want = multihead.sweeps.evaluate(template, quantity, r)
            got = payload[quantity.value.replace("-", "_")]
            assert got == want or (got is None and math.isnan(want))


class TestWigner:
    def test_mixture_grid_is_nonnegative(self, capsys):
        code, out = run(
            capsys, "wigner", "--alpha", "1+1i", "--heads", "2", "--family", "incoherent",
            "--nx", "41", "--ny", "41",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        values = [float(line.split(",")[2]) for line in rows]
        assert min(values) >= 0.0

    def test_five_head_cat_has_negativity(self, capsys):
        _, out = run(
            capsys, "wigner", "--alpha", "1+1i", "--heads", "5", "--family", "coherent",
            "--nx", "81", "--ny", "81",
        )
        values = [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        assert min(values) < 0.0

    def test_single_head_peak_location(self, capsys):
        _, out = run(
            capsys, "wigner", "--alpha", "1+1i", "--heads", "1", "--family", "coherent",
            "--nx", "81", "--ny", "81",
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        x, y, _ = max(rows, key=lambda row: float(row[2]))
        assert float(x) == pytest.approx(math.sqrt(2), abs=0.1)
        assert float(y) == pytest.approx(math.sqrt(2), abs=0.1)

    def test_csv_round_trip_is_byte_identical(self, capsys):
        _, out = run(
            capsys, "wigner", "--alpha", "1+1i", "--heads", "3", "--family", "coherent",
            "--nx", "15", "--ny", "11",
        )
        lines = out.strip().splitlines()
        reemitted = [lines[0]]
        for line in lines[1:]:
            x, y, w = (float(tok) for tok in line.split(","))
            reemitted.append(f"{x:.17g},{y:.17g},{w:.17g}")
        assert "\n".join(reemitted) + "\n" == out

    def test_grid_cap_is_capacity_error(self, capsys):
        code, _ = run(
            capsys, "wigner", "--alpha", "1+1i", "--heads", "2", "--family", "coherent",
            "--nx", "3000", "--ny", "2000",
        )
        assert code == 3

    def test_bad_range_is_usage_error(self, capsys):
        code, _ = run(
            capsys, "wigner", "--alpha", "1+1i", "--heads", "2", "--family", "coherent",
            "--x-min", "2", "--x-max", "-2",
        )
        assert code == 2
        # Refused before np.linspace, whose overflow warnings tier-1 turns into errors.
        for argv in (
            ("--heads", "3", "--nx", "3", "--ny", "2", "--y-min=-1.7e308", "--y-max=1.7e308"),
            ("--heads", "2", "--nx", "2", "--ny", "2", "--x-min=-inf"),
            ("--heads", "2", "--nx", "2", "--ny", "2", "--y-max=nan"),
        ):
            code, out = run(capsys, "wigner", "--alpha", "1+1i", "--family", "coherent", *argv)
            assert (code, out) == (2, "")


class TestSweepCommand:
    def test_three_head_cat_crossings(self, capsys):
        code, out = run(
            capsys, "sweep", "--heads", "3", "--family", "coherent",
            "--quantity", "mandel-q", "--r-max", "25", "--step", "0.05",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["crossings"][0] == pytest.approx(5.23972, abs=1e-3)
        assert payload["crossings"][1] == pytest.approx(17.1512, abs=1e-3)

    def test_mixture_parity_includes_pinch_point(self, capsys):
        _, out = run(
            capsys, "sweep", "--heads", "4", "--family", "incoherent",
            "--quantity", "parity", "--r-min", "0.5", "--r-max", "1.5", "--step", "0.25",
        )
        payload = json.loads(out)
        samples = dict((r, v) for r, v in payload["samples"])
        assert samples[1.0] == pytest.approx(math.exp(-2.0), abs=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--heads", "1", "--quantity", "parity", "--r-max", "4", "--step", "0.05",
             "--format", "csv"),
            ("stats", "--alpha", "1e200", "--heads", "1"),
        ],
        ids=["parity-sweep", "overflowing-stats"],
    )
    def test_one_head_prints_the_same_bytes_for_both_families(self, capsys, argv):
        # A one-head cat and a one-head mixture are the same coherent state.
        outcomes = [
            (main([*argv, "--family", family]), *capsys.readouterr())
            for family in ("coherent", "incoherent")
        ]
        assert outcomes[0] == outcomes[1]

    def test_three_head_cat_never_squeezes(self, capsys):
        for quantity in ("var-x1", "var-x2"):
            _, out = run(
                capsys, "sweep", "--heads", "3", "--family", "coherent",
                "--quantity", quantity, "--r-min", "0.05", "--r-max", "6", "--step", "0.05",
            )
            payload = json.loads(out)
            assert min(v for _, v in payload["samples"]) >= 0.5 - 1e-10
            assert payload["crossings"] == []

    def test_bad_range_is_usage_error(self, capsys):
        code, _ = run(
            capsys, "sweep", "--heads", "2", "--family", "coherent",
            "--quantity", "mandel-q", "--r-min", "5", "--r-max", "1",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ("--step", "nan"),
            ("--step", "inf"),
            ("--r-min", "nan"),
            ("--r-max", "inf"),
            ("--r-max", "nan"),
            ("--threshold", "nan"),
            ("--threshold", "inf"),
            ("--threshold=-inf",),
        ],
    )
    def test_non_finite_flag_is_usage_error(self, capsys, flags):
        argv = ["sweep", "--heads", "2", "--family", "coherent", "--quantity", "mandel-q"]
        if "--r-max" not in flags:
            argv += ["--r-max", "0.3"]
        code, out = run(capsys, *argv, *flags)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("threshold", [(), ("--threshold=2.37e51",)])
    def test_grid_near_the_largest_double_runs_cleanly(self, capsys, threshold):
        # The last grid term and the bisection midpoint's sum both overflow a double here.
        code = main([
            "sweep", "--heads", "12", "--family", "incoherent", "--quantity", "mean-photon",
            "--r-min", "1.6e308", "--r-max", "1.79e308", "--step", "1e307", *threshold,
        ])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        crossings = json.loads(captured.out)["crossings"]
        if threshold:
            (c,) = crossings
            assert c ** (1 / 6) == pytest.approx(2.37e51, rel=1e-12)
        else:
            assert crossings == []

    @pytest.mark.parametrize("r_max,step", [("1e300", "1e-300"), ("1e12", "1e-3")])
    def test_oversized_sweep_is_capacity_error(self, capsys, r_max, step):
        code, out = run(
            capsys, "sweep", "--heads", "2", "--family", "coherent",
            "--quantity", "mandel-q", "--r-max", r_max, "--step", step,
        )
        assert (code, out) == (3, "")


class TestValidateCommand:
    def test_three_head_cat_passes(self, capsys):
        code, out = run(capsys, "validate", "--alpha", "1+1i", "--heads", "3", "--family", "coherent")
        assert code == 0
        assert "MISMATCH" not in out

    def test_single_head_reduction_passes(self, capsys):
        code, _ = run(capsys, "validate", "--alpha", "1+1i", "--heads", "1", "--family", "incoherent")
        assert code == 0

    def test_six_heads_within_capacity(self, capsys):
        code, _ = run(capsys, "validate", "--alpha", "3+3i", "--heads", "6", "--family", "coherent")
        assert code == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tol):
        code, out = run(
            capsys, "validate", "--alpha", "1+1i", "--heads", "2", "--family", "coherent",
            "--tol", tol,
        )
        assert (code, out) == (2, "")

    def test_large_moments_are_checked_relative_to_their_size(self, capsys):
        # moment(2,2) = r^4 = 8.1e5 here; its absolute diff (~1e-7) is rounding.
        code, out = run(capsys, "validate", "--alpha", "30", "--heads", "1", "--family", "incoherent")
        assert code == 0
        assert "MISMATCH" not in out

    @pytest.mark.parametrize("n", [170, 300])
    def test_cats_whose_lowering_factors_overflow_pass(self, capsys, n):
        # (k + N)!/k! passes the largest double from N = 170 at k = 0; warnings are errors here.
        code, out = run(capsys, "validate", "--alpha", "1@0.7", "--heads", str(n), "--family",
                        "coherent")
        assert code == 0
        assert "MISMATCH" not in out and "eigenstate_residual" in out

    def test_a_cat_whose_level_n_amplitudes_underflow_is_refused(self, capsys):
        # c_N ~ 1/sqrt(N!) is below the smallest normal double at N = 320.
        code = main(["validate", "--alpha", "1@0.7", "--heads", "320", "--family", "coherent"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert "underflow" in captured.err


class TestFockCommand:
    def test_three_head_cat_composition(self, capsys):
        code, out = run(
            capsys, "fock", "--alpha", "1+1i", "--heads", "3", "--family", "coherent", "--max-m", "6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pnd"][0] == pytest.approx(0.75, abs=0.05)
        assert payload["pnd"][3] == pytest.approx(0.25, abs=0.05)
        assert payload["abs_fock_elements"][1][2] == 0.0

    def test_mixture_populates_all_levels(self, capsys):
        _, out = run(
            capsys, "fock", "--alpha", "1+1i", "--heads", "3", "--family", "incoherent", "--max-m", "6",
        )
        payload = json.loads(out)
        assert all(p > 0 for p in payload["pnd"])

    def test_negative_bound_is_usage_error(self, capsys):
        code, _ = run(
            capsys, "fock", "--alpha", "1+1i", "--heads", "3", "--family", "coherent", "--max-m", "-1",
        )
        assert code == 2

    def test_oversized_block_is_capacity_error(self, capsys):
        code, _ = run(
            capsys, "fock", "--alpha", "1+1i", "--heads", "3", "--family", "coherent", "--max-m", "2000",
        )
        assert code == 3


SPEC_COMMANDS = ("stats", "wigner", "fock", "validate")
SMALLEST = {"wigner": ("--nx", "2", "--ny", "2"), "fock": ("--max-m", "2")}


def spec_argv(command, alpha, heads, family):
    argv = (command, "--alpha", alpha, "--heads", str(heads), "--family", family)
    return argv + SMALLEST.get(command, ())


def sweep_argv(quantity, r, heads, family):
    # From 0 to r in two steps; r = 0 sweeps up to 1e-300 instead.
    r_max = float(r) or 1e-300
    return (
        "sweep", "--heads", str(heads), "--family", family, "--quantity", quantity,
        "--r-max", repr(r_max), "--step", repr(r_max / 2),
    )


class TestCapacityLimits:
    """Moduli and head counts past what a double or the head arrays can hold exit 3."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("stats", "--alpha", "1e100", "--heads", "1", "--family", "incoherent"),
            ("stats", "--alpha", "1e100", "--heads", "1", "--family", "coherent"),
            ("stats", "--alpha", "1e160", "--heads", "2", "--family", "coherent"),
        ]
        + [
            spec_argv(command, "1e200", 1, family)
            for command in ("fock", "wigner", "validate")
            for family in ("incoherent", "coherent")
        ]
        + [
            ("roots", "--alpha", "1", "--heads", "1099511627776"),
            ("stats", "--alpha", "1", "--heads", "1099511627776", "--family", "coherent"),
            ("fock", "--alpha", "1", "--heads", "1099511627776", "--family", "coherent"),
            sweep_argv("mean-photon", "1", 1099511627776, "coherent"),
        ],
    )
    def test_is_capacity_error(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("family", ["incoherent", "coherent"])
    @pytest.mark.parametrize("command", ("roots",) + SPEC_COMMANDS + ("sweep",))
    def test_one_head_past_the_limit(self, capsys, command, family):
        if command == "roots":
            argv = ("roots", "--alpha", "1+1i", "--heads", str(HEADS_MAX + 1))
        elif command == "sweep":
            argv = sweep_argv("parity", "1", HEADS_MAX + 1, family)
        else:
            argv = spec_argv(command, "1+1i", HEADS_MAX + 1, family)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == f"error: head count {HEADS_MAX + 1} exceeds {HEADS_MAX}\n"


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.MultiheadError, 1),
        (errors.InternalConsistencyError, 1),
        (errors.CutoffInsufficientError, 1),
        (errors.InvalidInputError, 2),
        (errors.UndefinedStatisticError, 2),
        (errors.CapacityError, 3),
    ],
)
def test_each_error_type_carries_its_exit_code(capsys, monkeypatch, error, code):
    def failing(args):
        raise error("stop")

    monkeypatch.setattr(cli, "cmd_roots", failing)
    assert error.exit_code == code
    assert main(["roots", "--alpha", "1", "--heads", "2"]) == code
    assert capsys.readouterr() == ("", "error: stop\n")


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_an_out_path_that_cannot_be_opened_exits_2(capsys, tmp_path, where):
    path = tmp_path / "missing" / "x" if where == "missing-directory" else tmp_path
    code = main(["roots", "--alpha", "1", "--heads", "2", "--out", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in captured.err


def load_cli_digest():
    """tools/cli_digest.py as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_digest = load_cli_digest()


def edge_cases():
    """The digest tool's edge matrix, N in {1, 2, 12, HEADS_MAX + 1} x five r, each argv once.

    An id reads command[-quantity][-family]-N-r; a sweep's r is its --r-max.
    The tool sweeps r = 0 up to 1e-300, the same argv as r = 1e-300, so the
    sweep ids of r = 0 here pass --r-max 0 itself, which the CLI refuses.
    """
    assert cli_digest.EDGE_HEADS[-1] == HEADS_MAX + 1
    moduli = {float(r): r for r in cli_digest.EDGE_MODULI}
    for argv in dict.fromkeys(cli_digest.edge_cases()):
        opts = dict(zip(argv[1::2], argv[2::2]))
        r = opts.get("--alpha") or moduli[float(opts["--r-max"])]
        parts = (argv[0], opts.get("--quantity"), opts.get("--family"), opts["--heads"], r)
        case_id = "-".join(part for part in parts if part)
        yield pytest.param(argv, id=case_id)
        if argv[0] == "sweep" and r == "1e-300":
            i = argv.index("--r-max") + 1
            yield pytest.param(argv[:i] + ("0",) + argv[i + 1:], id=case_id[: -len(r)] + "0")


def far_out_grids():
    # |beta|^2 overflows on these grids; W is 0 there and no overflow escapes.
    for family in ("incoherent", "coherent"):
        for span in (("--x-min=1e160", "--x-max=2e160"), ("--y-min=-1e200", "--y-max=1e200")):
            argv = ("wigner", "--alpha", "1+1i", "--heads", "3", "--family", family,
                    "--nx", "3", "--ny", "2", *span)
            yield pytest.param(argv, id=f"wigner-{family}-3-{span[0][2:]}")
    # The cat at mu = 1000, whose centred pairs all underflow on this grid.
    argv = ("wigner", "--alpha", "1000", "--heads", "2", "--family", "coherent",
            "--nx", "2", "--ny", "2", "--x-min=1e160", "--x-max=2e160")
    yield pytest.param(argv, id="wigner-coherent-2-pair-loop-1e160")


@pytest.mark.parametrize("argv", list(edge_cases()) + list(far_out_grids()))
def test_edge_inputs_exit_cleanly(capsys, argv):
    # Tier-1 turns RuntimeWarning into an error, so a silent overflow fails here too.
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code in (0, 2, 3)
    assert not re.search(r"\b(inf|nan)\b", out, re.IGNORECASE)


# At r = 1e308, 2 mu passes the largest double: the overlap exponents' real
# parts overflow to -inf (their exponentials are 0), and a quadrature
# variance can overflow though its moments do not.
OVERFLOW_CASES = [
    (("wigner", "--alpha", "1e308", "--heads", "2", "--family", "coherent",
      "--nx", "2", "--ny", "2"), 3),
    (("fock", "--alpha", "1e308", "--heads", "2", "--family", "coherent", "--max-m", "2"), 0),
    (("sweep", "--heads", "2", "--family", "coherent", "--quantity", "parity",
      "--r-max", "1e308", "--step", "1e306"), 0),
    *((("sweep", "--heads", "2", "--family", family, "--quantity", quantity,
        "--r-max", "1e308", "--step", "5e307", "--format", fmt), 3)
      for family in ("incoherent", "coherent") for quantity in ("var-x1", "var-x2")
      for fmt in ("json", "csv")),
]


@pytest.mark.parametrize("argv, want", OVERFLOW_CASES,
                         ids=[" ".join(argv) for argv, _ in OVERFLOW_CASES])
def test_overflow_past_the_largest_double_is_clean(capsys, argv, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(argv))
    captured = capsys.readouterr()
    assert code == want
    assert not re.search(r"\b(inf|nan)\b", captured.out, re.IGNORECASE)
    if want == 3:
        assert "overflows" in captured.err or "outruns" in captured.err


class TestEmissionIsOnePassPerArray:
    """Arrays are formatted in one pass, not by one fmt() call per value."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("wigner", "--alpha", "1+1i", "--heads", "2", "--family", "coherent", "--format", "csv"),
            ("wigner", "--alpha", "1+1i", "--heads", "2", "--family", "coherent", "--format", "json"),
            ("sweep", "--heads", "3", "--family", "coherent", "--quantity", "mandel-q", "--r-max", "25"),
        ],
    )
    def test_fmt_is_not_called_per_value(self, capsys, monkeypatch, argv):
        original = serialize.fmt
        calls = []

        def counting(value):
            calls.append(value)
            return original(value)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "multihead" and getattr(module, "fmt", None) is original:
                monkeypatch.setattr(module, "fmt", counting)
        code, out = run(capsys, *argv)
        assert code == 0
        assert len(out.splitlines()) > 2500
        assert len(calls) <= 16


def fresh_output(code):
    """The stdout of ``code`` run in a fresh interpreter that imports this package."""
    src = str(Path(multihead.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    return done.stdout


class TestStartup:
    def test_no_command_loads_scipy_fractions_or_decimal(self):
        # A fresh interpreter runs all six commands: nothing that pytest or other
        # tests loaded counts.  The oracle's ln k!, xlogy and Poisson tails come
        # from numpy and libm, and the float emitters build their tables with int
        # and numpy arithmetic.
        code = (
            "import sys, multihead.cli\n"
            "main = multihead.cli.main\n"
            "spec = ['--alpha', '1+1i', '--heads', '3', '--family', 'coherent']\n"
            "codes = [main(['roots', *spec[:4]]), main(['stats', *spec]),\n"
            "         main(['wigner', *spec, '--nx', '3', '--ny', '2']),\n"
            "         main(['sweep', *spec[2:], '--quantity', 'mandel-q', '--r-max', '1']),\n"
            "         main(['validate', *spec]), main(['fock', *spec, '--max-m', '4'])]\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "loaded += sorted({'fractions', 'decimal', '_decimal'} & set(sys.modules))\n"
            "print(loaded, codes)\n"
        )
        assert fresh_output(code).splitlines()[-1] == "[] [0, 0, 0, 0, 0, 0]"

    @pytest.mark.skipif(not hasattr(cli._libc, "mallopt"), reason="glibc allocator only")
    def test_freed_large_arrays_are_reused_without_page_faults(self):
        # Two live 1 MiB temporaries, freed and made again: mapped afresh, each
        # round faults in ~500 zero pages; kept on the heap, it faults in none.
        code = (
            "import resource, numpy as np, multihead.cli\n"
            "x = np.linspace(0.0, 1.0, 131_072)\n"
            "np.exp(x * 2.0).sum()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(20):\n"
            "    np.exp(x * 2.0).sum()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert int(fresh_output(code).splitlines()[-1]) < 100

    @pytest.mark.skipif(not hasattr(cli._libc, "mallopt"), reason="glibc allocator only")
    def test_grids_reuse_the_heap_and_a_large_freed_heap_top_goes_back(self):
        # A second default grid reuses the pages the first one freed.  Two
        # 24 MiB blocks sit on the heap (each is under the mmap threshold);
        # freed, the heap top passes the 32 MiB trim threshold and glibc hands
        # it back at once.  Under a 64 MiB trim threshold both stay resident.
        code = (
            "import os, resource, numpy as np, multihead.cli as cli\n"
            "def rss():\n"
            "    with open('/proc/self/statm') as statm:\n"
            "        return int(statm.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
            "def faults():\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "grid = ['wigner', '--alpha', '1+1i', '--heads', '2', '--family', 'coherent',\n"
            "        '--out', os.devnull]\n"
            "assert cli.main(grid) == 0\n"
            "before = faults()\n"
            "assert cli.main(grid) == 0\n"
            "repeat = faults() - before\n"
            "before = rss()\n"
            "blocks = [np.ones(3 << 20) for _ in range(2)]\n"
            "grown = rss() - before\n"
            "del blocks\n"
            "print(repeat, grown, rss() - before)\n"
        )
        repeat, grown, kept = map(int, fresh_output(code).split())
        assert repeat < 100
        assert grown > 32 << 20
        assert kept < 8 << 20

    def test_imports_on_a_libc_without_mallopt(self):
        # musl exports no mallopt; the allocator is then left as it is.
        code = (
            "import ctypes, os, numpy\n"
            "ctypes.CDLL = lambda name: object()\n"
            "from multihead.cli import main\n"
            "print(main(['roots', '--alpha', '1', '--heads', '2', '--out', os.devnull]))\n"
        )
        assert fresh_output(code) == "0\n"


class RecordingLibc:
    """A libc that records every name looked up on it."""

    def __init__(self):
        self.looked_up = []

    def __getattr__(self, name):
        self.looked_up.append(name)
        return lambda *args: 0


class TestAllocatorPolicy:
    """glibc's thresholds are set once, at import; no command touches the allocator."""

    def test_import_sets_both_thresholds_to_one_constant(self):
        code = (
            "import ctypes, numpy\n"
            "opened, calls = [], []\n"
            "def mallopt(param, value):\n"
            "    calls.append((param, value))\n"
            "    return 1\n"
            "class Libc:\n"
            "    pass\n"
            "Libc.mallopt = staticmethod(mallopt)\n"
            "ctypes.CDLL = lambda name: opened.append(name) or Libc()\n"
            "import multihead.cli as cli\n"
            "print(opened, calls, mallopt.argtypes == (ctypes.c_int, ctypes.c_int))\n"
        )
        threshold = 32 << 20
        assert cli._MALLOC_THRESHOLD == threshold
        assert fresh_output(code) == f"[None] [(-3, {threshold}), (-1, {threshold})] True\n"

    def test_other_platforms_leave_the_allocator_alone(self):
        code = (
            "import ctypes, os, sys, numpy\n"
            "opened = []\n"
            "ctypes.CDLL = lambda name: opened.append(name)\n"
            "sys.platform = 'darwin'\n"
            "import multihead.cli as cli\n"
            "code = cli.main(['roots', '--alpha', '1', '--heads', '2', '--out', os.devnull])\n"
            "print(cli._libc, opened, code)\n"
        )
        assert fresh_output(code) == "None [] 0\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("roots", "--alpha", "1", "--heads", "2"), 0),
            (spec_argv("stats", "1+1i", 2, "coherent"), 0),
            (spec_argv("wigner", "1+1i", 2, "coherent"), 0),
            (spec_argv("fock", "1+1i", 2, "coherent"), 0),
            (spec_argv("validate", "1+1i", 2, "coherent"), 0),
            (sweep_argv("mandel-q", "1", 2, "coherent"), 0),
            (spec_argv("validate", "1+1i", 2, "coherent") + ("--tol", "1e-300"), 1),
            (spec_argv("stats", "1", 0, "coherent"), 2),
            (("roots", "--alpha", "1", "--heads", str(HEADS_MAX + 1)), 3),
        ],
        ids=lambda v: v if isinstance(v, int) else v[0],
    )
    def test_main_leaves_the_allocator_alone(self, capsys, monkeypatch, argv, code):
        libc = RecordingLibc()
        monkeypatch.setattr(cli, "_libc", libc)
        assert (main(list(argv)), libc.looked_up) == (code, [])

    def test_a_rejected_argv_leaves_the_allocator_alone(self, capsys, monkeypatch):
        libc = RecordingLibc()
        monkeypatch.setattr(cli, "_libc", libc)
        with pytest.raises(SystemExit) as exc:
            main(["nope"])
        assert (exc.value.code, libc.looked_up) == (2, [])


REUSE_SEQUENCE = (
    ("sweep", "--heads", "3", "--family", "coherent", "--quantity", "mandel-q", "--r-max", "2"),
    ("wigner", "--alpha", "1+1i", "--heads", "2", "--family", "coherent", "--nx", "5", "--ny", "4"),
    ("fock", "--alpha", "1+1i", "--heads", "3", "--family", "incoherent", "--max-m", "4"),
    ("stats", "--alpha", "2@0.7", "--heads", "4", "--family", "coherent"),
)


class TestParserReuse:
    """main() builds its parser once; nothing may carry over between calls."""

    def outputs(self, capsys, argvs):
        return [run(capsys, *argv) for argv in argvs]

    def test_repeated_calls_print_what_a_fresh_parser_prints(self, capsys, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)  # a new parser on every call
            fresh = self.outputs(capsys, REUSE_SEQUENCE)
        assert cli._parser() is cli._parser()
        assert self.outputs(capsys, REUSE_SEQUENCE + REUSE_SEQUENCE) == fresh + fresh
        assert fresh[1][1].startswith("x,y,w\n")  # wigner's csv default, not sweep's json
        assert json.loads(fresh[2][1])["max_m"] == 4

    def test_a_rejected_call_leaves_the_parser_usable(self, capsys, monkeypatch):
        valid = REUSE_SEQUENCE[0]
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            want = run(capsys, *valid)
        for bad in (
            ("sweep", "--heads", "3", "--family", "coherent", "--quantity", "mandel-q"),
            ("wigner", "--alpha", "1", "--heads", "2", "--family", "coherent", "--format", "xml"),
            ("nope",),
        ):
            with pytest.raises(SystemExit) as exc:
                main(list(bad))
            assert exc.value.code == 2
            capsys.readouterr()
            assert run(capsys, *valid) == want

    def test_commands_are_looked_up_when_called(self, capsys, monkeypatch):
        # Wrapping a command after the parser exists (as a tracer does) takes effect.
        run(capsys, *REUSE_SEQUENCE[0])
        original, calls = cli.cmd_sweep, []

        def counting(args):
            calls.append(args.command)
            return original(args)

        monkeypatch.setattr(cli, "cmd_sweep", counting)
        code, _ = run(capsys, *REUSE_SEQUENCE[0])
        assert (code, calls) == (0, ["sweep"])


def test_output_matches_the_committed_digests(capsys, monkeypatch):
    # Every case of tools/cli_digest.py against tests/data/cli_digest.txt; a
    # mismatch lists the changed cases and how this environment's stamp differs.
    root = Path(__file__).resolve().parents[1]
    monkeypatch.setattr(sys, "path", list(sys.path))
    manifest = root / "tests" / "data" / "cli_digest.txt"
    code = cli_digest.main(["--src", str(root / "src"), "--check", str(manifest)])
    out = capsys.readouterr().out
    assert code == 0, out


def test_dumped_records_hash_to_the_printed_digests(capsys, monkeypatch, tmp_path):
    # --dump writes case i to <i>.json; its streams, joined, give back what the digest hashes.
    root = Path(__file__).resolve().parents[1]
    monkeypatch.setattr(sys, "path", list(sys.path))
    argvs = [
        ("roots", "--alpha", "1", "--heads", "3"),
        ("stats", "--alpha", "1", "--heads", "0", "--family", "coherent"),
        ("wigner", "--alpha", "1", "--heads", "2", "--family", "coherent", "--nx", "2", "--ny", "2"),
    ]
    monkeypatch.setattr(cli_digest, "cases", lambda: iter(argvs))
    code = cli_digest.main(["--src", str(root / "src"), "--dump", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0.json", "1.json", "2.json"]
    codes = []
    for index, (argv, line) in enumerate(zip(argvs, lines)):
        dumped = json.loads((tmp_path / f"{index}.json").read_text())
        outcome = (dumped["code"], "".join(dumped["stdout"]), "".join(dumped["stderr"]))
        digest = hashlib.sha256(cli_digest.record(outcome)).hexdigest()
        assert (tuple(dumped["argv"]), line) == (argv, f"{digest} {' '.join(argv)}")
        codes.append(dumped["code"])
    assert codes == [0, 2, 0]


# Single-state commands in both families at 1+1i and at r = 30, where libm's
# and numpy's powers round mu apart at N = 12.
ORDER_CASES = [
    (command, *cli_digest.spec(alpha, n, family), *extra)
    for alpha in ("1+1i", "30@0.7")
    for n in (3, 12)
    for family in cli_digest.FAMILIES
    for command, extra in (("stats", ()), ("validate", ()), ("fock", ("--max-m", "6")),
                           ("wigner", cli_digest.SMALL_GRID))
]


def test_outputs_do_not_depend_on_earlier_commands():
    # tools/cli_digest.py runs its whole matrix in one process, so module state
    # that carried a value from one command to the next could move a digest.
    forward = [cli_digest.run(main, argv) for argv in ORDER_CASES]
    backward = [cli_digest.run(main, argv) for argv in ORDER_CASES[::-1]]
    assert len(ORDER_CASES) == 32
    assert all(code == 0 for code, _, _ in forward)
    assert forward == backward[::-1]
