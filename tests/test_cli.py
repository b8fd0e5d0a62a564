"""End-to-end checks of the console entry point, run in process."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from svlibor.cli import main
from svlibor.fourier import black76, caplet_price, swaption_price
from svlibor.market_data import strip_libors
from svlibor.model import build_factorization


def write_small_market(tmp_path):
    """6-period market files whose truth sits at the calibration start."""
    curve = tmp_path / "curve.csv"
    lines = ["T,B"] + [f"{t},{1.03 ** -t:.17g}" for t in range(1, 7)]
    curve.write_text("\n".join(lines) + "\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "alpha": [0.0] * 5, "beta_norm": [0.15] * 5, "rho": [-0.5] * 5,
        "kappa": [1.0] * 5, "theta": [1.0] * 5, "eps": [1.0] * 5,
        "corr_decay": 0.1,
    }))
    return curve, model


class TestStrip:
    def test_matches_library(self, tmp_path, fixtures_dir, libors, tenor):
        out = tmp_path / "libors.csv"
        rc = main(["strip", "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == tenor.n - 1
        got = np.array([float(r["L"]) for r in rows])
        np.testing.assert_array_equal(got, libors[1:tenor.n])
        assert [int(r["j"]) for r in rows] == list(range(1, tenor.n))

    def test_missing_curve_file_is_reported(self, tmp_path, capsys):
        rc = main(["strip", "--curve", str(tmp_path / "nope.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestPriceCaplet:
    def test_fourier_column_matches_library(self, tmp_path, fixtures_dir,
                                            tenor, curve, params, libors):
        out = tmp_path / "caplet.csv"
        rc = main(["price-caplet",
                   "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--j", "5", "--strikes", "0.01,0.02", "--no-mc",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        fact = build_factorization(params, tenor)
        for row, strike in zip(rows, (0.01, 0.02)):
            expected = caplet_price(5, strike, tenor, curve, params, fact,
                                    libors=libors)
            assert float(row["fourier_price"]) == pytest.approx(expected,
                                                                rel=1e-12)
            assert row["mc_price"] == "" and row["mc_se"] == ""

    def test_dump_effective(self, tmp_path, fixtures_dir):
        out = tmp_path / "eff.json"
        rc = main(["price-caplet",
                   "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--j", "5", "--dump-effective", "--out", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert blob["expiry"] == 5
        assert blob["kappa_eff"] == pytest.approx(3.8979114755633613,
                                                  rel=1e-12)
        assert blob["gamma"] == []

    def test_strike_required(self, fixtures_dir, capsys):
        rc = main(["price-caplet",
                   "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--j", "5", "--no-mc"])
        assert rc == 1
        assert "error: SvLiborError" in capsys.readouterr().err

    def test_bad_strike_list_rejected_by_parser(self, fixtures_dir):
        with pytest.raises(SystemExit) as exc:
            main(["price-caplet",
                  "--curve", str(fixtures_dir / "curve_table.csv"),
                  "--model", str(fixtures_dir / "model_table.json"),
                  "--j", "5", "--strikes", "a,b", "--no-mc"])
        assert exc.value.code == 2


class TestPriceSwaption:
    def test_zero_strike_and_decay_override(self, tmp_path, fixtures_dir,
                                            tenor, curve, params, libors):
        out = tmp_path / "swaption.csv"
        rc = main(["price-swaption",
                   "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--corr-decay", "0.0553",
                   "--p", "2", "--q", "10", "--strikes", "0.0,0.015",
                   "--no-mc", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        # zero strike prices the difference of the leg-end bonds
        assert float(rows[0]["fourier_price"]) == pytest.approx(
            float(curve.bonds[2] - curve.bonds[10]), abs=1e-9)
        swapped = dataclasses.replace(params, corr_decay=0.0553)
        fact = build_factorization(swapped, tenor)
        expected = swaption_price(2, 10, 0.015, tenor, curve, swapped, fact,
                                  libors=libors)
        assert float(rows[1]["fourier_price"]) == pytest.approx(expected,
                                                                rel=1e-12)


class TestMcPrice:
    ARGS = ["--j", "3", "--strike", "0.01", "--substitute", "caplet",
            "--paths", "2048", "--steps-per-year", "4", "--seed", "3"]

    def test_json_payload_and_determinism(self, tmp_path, fixtures_dir):
        base = ["mc-price", "--curve", str(fixtures_dir / "curve_table.csv"),
                "--model", str(fixtures_dir / "model_table.json")] + self.ARGS
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        blob = json.loads(out1.read_text())
        assert set(blob) == {"price", "se", "paths", "steps_per_year", "seed"}
        assert blob["paths"] == 2048 and blob["seed"] == 3
        assert 0.0 < blob["price"] < 0.1
        assert blob["se"] > 0.0

    def test_caplet_and_swaption_flags_conflict(self, fixtures_dir, capsys):
        rc = main(["mc-price", "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--j", "3", "--p", "2", "--q", "5", "--strike", "0.01"])
        assert rc == 1
        assert "either --j" in capsys.readouterr().err


class TestCalibrate:
    @pytest.mark.filterwarnings("ignore:no panel")
    def test_small_market_round_trip(self, tmp_path):
        curve_path, model_path = write_small_market(tmp_path)
        from svlibor.market_data import load_curve
        from svlibor.model import load_params
        tenor, curve = load_curve(curve_path)
        params = load_params(model_path)
        libors = strip_libors(curve, tenor)
        strikes = np.linspace(0.5, 1.6, 4) * libors[5]
        prices = caplet_price(5, strikes, tenor, curve, params)
        panel_path = tmp_path / "panels.csv"
        lines = ["expiry_index,strike,quote,quote_kind"]
        lines += [f"5,{k:.17g},{p:.17g},price" for k, p in zip(strikes, prices)]
        panel_path.write_text("\n".join(lines) + "\n")

        out = tmp_path / "fit.json"
        report = tmp_path / "report.csv"
        rc = main(["calibrate", "--curve", str(curve_path),
                   "--model", str(model_path), "--panels", str(panel_path),
                   "--fit-report", str(report), "--out", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert len(blob["fits"]) == 5
        fit = blob["fits"][-1]
        assert fit["expiry"] == 5
        assert fit["converged"] is True
        assert fit["objective"] < 1e-6
        assert fit["beta_norm"] == pytest.approx(0.15, rel=1e-2)

        rows = list(csv.DictReader(report.open()))
        assert list(rows[0]) == ["maturity", "strike", "market_price",
                                 "model_price", "market_ivol", "model_ivol"]
        assert len(rows) == 4
        for row in rows:
            assert float(row["model_price"]) == pytest.approx(
                float(row["market_price"]), rel=1e-3)

    @pytest.mark.filterwarnings("ignore:no panel")
    def test_uses_calibration_options_and_emits_diagnostics(self, tmp_path,
                                                             monkeypatch):
        # The subcommand must price candidates with the calibration rule,
        # not with the pricing commands' quadrature flags.
        import svlibor.cli
        from svlibor.calibrate import CalibrationOptions
        seen = []
        real = svlibor.cli.calibrate_all

        def spy(panels, params, tenor, curve, options):
            seen.append(options)
            return real(panels, params, tenor, curve, options)

        monkeypatch.setattr(svlibor.cli, "calibrate_all", spy)
        curve_path, model_path = write_small_market(tmp_path)
        from svlibor.market_data import load_curve
        from svlibor.model import load_params
        tenor, curve = load_curve(curve_path)
        strikes = (0.02, 0.03, 0.04)
        prices = caplet_price(5, strikes, tenor, curve,
                              load_params(model_path))
        panel_path = tmp_path / "panels.csv"
        lines = ["expiry_index,strike,quote,quote_kind"]
        lines += [f"5,{k},{p:.17g},price" for k, p in zip(strikes, prices)]
        panel_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        rc = main(["calibrate", "--curve", str(curve_path),
                   "--model", str(model_path), "--panels", str(panel_path),
                   "--out", str(out)])
        assert rc == 0
        assert len(seen) == 1
        assert seen[0].quad == CalibrationOptions().quad
        fit = json.loads(out.read_text())["fits"][-1]
        assert fit["iterations"] > 0
        assert isinstance(fit["status"], int) and fit["message"]
        assert fit["penalties"] == 0


class TestImpliedVol:
    def test_round_trip(self, capsys):
        price = 0.9 * black76(0.03, 2.0, 0.25, 0.03)
        rc = main(["implied-vol", "--price", f"{price:.17g}",
                   "--forward", "0.03", "--strike", "0.03",
                   "--expiry", "2.0", "--discount", "0.9"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["implied_vol"] == pytest.approx(0.25, abs=1e-8)


class TestCorrelations:
    def test_long_format_and_unit_diagonal(self, tmp_path, fixtures_dir,
                                           tenor):
        out = tmp_path / "corr.csv"
        rc = main(["correlations",
                   "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3 * (tenor.n - 1) ** 2
        assert {r["matrix"] for r in rows} == {"libor_libor", "libor_vol",
                                               "vol_vol"}
        for r in rows:
            if r["matrix"] == "libor_libor" and r["j"] == r["jprime"]:
                assert float(r["value"]) == pytest.approx(1.0, abs=1e-12)


class TestParser:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
