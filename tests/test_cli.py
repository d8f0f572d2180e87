import json
import math

import pytest

from multihead.cli import main


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
