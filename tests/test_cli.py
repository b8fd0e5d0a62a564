"""End-to-end checks of the console entry point, run in process."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from svlibor.affine import CharFnParams
from svlibor.cli import main
from svlibor.fourier import (black76, caplet_price, implied_vol,
                             swaption_price)
from svlibor.market_data import strip_libors
from svlibor.model import build_factorization, load_params
from svlibor.montecarlo import MCConfig, mc_caplets, mc_swaptions

# What ``--dump-effective`` writes, in order, for caplets and swaptions.
CF_FIELDS = [field.name for field in dataclasses.fields(CharFnParams)]


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


def strict_json(text):
    """``text`` parsed as strict parsers do: a NaN or Infinity token is an
    error."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


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

    def test_fourier_column_equals_library_vector(self, tmp_path,
                                                  fixtures_dir, tenor, curve,
                                                  params, libors):
        # The strike list is priced in one vectorized call; the CSV column
        # round-trips that vector exactly.
        strikes = [0.002, 0.01, 0.0175, 0.02, 0.045]
        fact = build_factorization(params, tenor)
        expected = caplet_price(11, np.array(strikes), tenor, curve, params,
                                fact, libors=libors)
        out = tmp_path / "caplet.csv"
        rc = main(["price-caplet",
                   "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--j", "11", "--strikes", ",".join(map(str, strikes)),
                   "--no-mc", "--out", str(out)])
        assert rc == 0
        got = [float(row["fourier_price"])
               for row in csv.DictReader(out.open())]
        np.testing.assert_array_equal(got, expected)

    def test_dump_effective(self, tmp_path, fixtures_dir):
        out = tmp_path / "eff.json"
        rc = main(["price-caplet",
                   "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--j", "5", "--dump-effective", "--out", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert list(blob) == CF_FIELDS
        assert blob["horizon"] == 5.0
        assert blob["kappa_star"] == pytest.approx(3.8979114755633613,
                                                   rel=1e-12)
        assert blob["gamma_int"] == 0.0

    def test_strike_required(self, fixtures_dir, capsys):
        rc = main(["price-caplet",
                   "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--j", "5", "--no-mc"])
        assert rc == 1
        assert "error: SvLiborError" in capsys.readouterr().err

    @pytest.mark.parametrize("j", ["0", "-1", "20", "25"])
    def test_expiry_out_of_range_reported(self, fixtures_dir, capsys, j):
        rc = main(["price-caplet",
                   "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--j", j, "--strike", "0.02", "--no-mc"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: IndexError: expiry index {j} outside 1..19\n")

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
        expected = swaption_price(2, 10, np.array([0.0, 0.015]), tenor, curve,
                                  swapped, fact, libors=libors)
        got = [float(row["fourier_price"]) for row in rows]
        np.testing.assert_array_equal(got, expected)

    def test_dump_effective(self, tmp_path, fixtures_dir):
        out = tmp_path / "eff.json"
        rc = main(["price-swaption",
                   "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--p", "2", "--q", "10", "--dump-effective",
                   "--out", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert list(blob) == CF_FIELDS
        assert blob["kappa_star"] == pytest.approx(3.881564586849864,
                                                   rel=1e-12)
        assert blob["gamma_int"] == 0.0 and blob["horizon"] == 2.0


class TestPriceTables:
    MC = ["--paths", "512", "--steps-per-year", "4", "--seed", "3"]

    @pytest.mark.parametrize("command,index,key,mc_price", [
        ("price-caplet", ["--j", "5"], 5, mc_caplets),
        ("price-swaption", ["--p", "2", "--q", "10"], (2, 10), mc_swaptions)])
    def test_mc_columns_match_library(self, tmp_path, fixtures_dir, tenor,
                                      curve, params, fact, command, index,
                                      key, mc_price):
        out = tmp_path / "table.csv"
        rc = main([command, "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--strikes", "0.01,0.02,0.03", "--out", str(out)]
                  + index + self.MC)
        assert rc == 0
        want = mc_price({key: np.array([0.01, 0.02, 0.03])}, tenor, curve,
                        params, fact,
                        MCConfig(paths=512, steps_per_year=4, seed=3))[key]
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        for row, res in zip(rows, want):
            fourier, mc = float(row["fourier_price"]), float(row["mc_price"])
            assert (mc, float(row["mc_se"])) == (res.price, res.se)
            assert float(row["abs_error"]) == abs(fourier - mc)
            assert float(row["rel_error"]) == abs(fourier - mc) / abs(mc)

    def test_undefined_mc_figures_are_empty_cells(self, tmp_path,
                                                  fixtures_dir):
        # One path has no standard error, and a zero MC price no relative
        # error: the cells are empty, as the --no-mc columns are, not nan.
        out = tmp_path / "one.csv"
        rc = main(["price-caplet",
                   "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--j", "5", "--strikes", "0.02,0.5", "--paths", "1",
                   "--out", str(out)])
        assert rc == 0
        assert "nan" not in out.read_text()
        rows = list(csv.DictReader(out.open()))
        assert [row["mc_se"] for row in rows] == ["", ""]
        assert float(rows[0]["rel_error"]) > 0.0
        assert float(rows[1]["mc_price"]) == 0.0 and rows[1]["rel_error"] == ""

    @pytest.mark.parametrize("command,index", [
        ("price-caplet", ["--j", "5"]),
        ("price-swaption", ["--p", "2", "--q", "10"])])
    def test_strike_is_a_second_spelling_of_strikes(self, tmp_path,
                                                    fixtures_dir, command,
                                                    index):
        outs = []
        for flag in ("--strike", "--strikes"):
            outs.append(tmp_path / f"{flag.strip('-')}.csv")
            rc = main([command,
                       "--curve", str(fixtures_dir / "curve_table.csv"),
                       "--model", str(fixtures_dir / "model_table.json"),
                       flag, "0.015", "--out", str(outs[-1])]
                      + index + self.MC)
            assert rc == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(outs[0].read_text().splitlines()) == 2

    def test_model_file_with_gaussian_part(self, tmp_path, fixtures_dir,
                                           tenor, curve, libors):
        payload = json.loads((fixtures_dir / "model_table.json").read_text())
        model = tmp_path / "gaussian.json"
        model.write_text(json.dumps(
            {**payload, "gamma": np.full((19, 2), 0.001).tolist()}))
        base = ["price-caplet",
                "--curve", str(fixtures_dir / "curve_table.csv"),
                "--model", str(model), "--j", "5"]
        table, eff = tmp_path / "caplet.csv", tmp_path / "eff.json"
        assert main(base + ["--strikes", "0.01,0.02", "--no-mc",
                            "--out", str(table)]) == 0
        assert main(base + ["--dump-effective", "--out", str(eff)]) == 0
        params = load_params(model)
        expected = caplet_price(5, np.array([0.01, 0.02]), tenor, curve,
                                params, build_factorization(params, tenor),
                                libors=libors)
        got = [float(row["fourier_price"])
               for row in csv.DictReader(table.open())]
        np.testing.assert_array_equal(got, expected)
        # Gamma = |gamma_5|^2 T_5 with gamma_5 = (0.001, 0.001).
        assert json.loads(eff.read_text())["gamma_int"] == pytest.approx(
            2e-6 * 5.0, rel=1e-12)


class TestMcPrice:
    ARGS = ["--j", "3", "--strike", "0.01", "--substitute", "caplet",
            "--paths", "2048", "--steps-per-year", "4", "--seed", "3"]

    def test_json_payload_and_determinism(self, tmp_path, fixtures_dir):
        base = ["mc-price", "--curve", str(fixtures_dir / "curve_table.csv"),
                "--model", str(fixtures_dir / "model_table.json")] + self.ARGS
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        # Everything but the timing repeats exactly.
        blob, again = (json.loads(out.read_text()) for out in (out1, out2))
        assert set(blob) == {"price", "se", "paths", "steps_per_year", "seed",
                             "steps", "elapsed_s"}
        del blob["elapsed_s"], again["elapsed_s"]
        assert blob == again
        assert blob["paths"] == 2048 and blob["seed"] == 3
        assert 0.0 < blob["price"] < 0.1
        assert blob["se"] > 0.0

    def test_reports_steps_and_elapsed_seconds(self, tmp_path, fixtures_dir,
                                               tenor, curve, params, fact):
        # The caplet on L_3 pays at T_4: 16 steps at 4 a year, so the run's
        # path-steps/s is paths * steps / elapsed_s.
        out = tmp_path / "mc.json"
        assert main(["mc-price",
                     "--curve", str(fixtures_dir / "curve_table.csv"),
                     "--model", str(fixtures_dir / "model_table.json"),
                     "--out", str(out)] + self.ARGS) == 0
        blob = strict_json(out.read_text())
        cfg = MCConfig(paths=2048, steps_per_year=4, seed=3,
                       substitution=("caplet", 3))
        want = mc_caplets({3: np.array([0.01])}, tenor, curve, params, fact,
                          cfg)[3][0]
        assert blob["steps"] == want.steps == 16
        assert isinstance(blob["elapsed_s"], float) and blob["elapsed_s"] > 0.0
        assert blob["paths"] * blob["steps"] / blob["elapsed_s"] > 0.0

    def test_one_path_writes_null_standard_error(self, tmp_path,
                                                 fixtures_dir):
        out = tmp_path / "mc.json"
        assert main(["mc-price",
                     "--curve", str(fixtures_dir / "curve_table.csv"),
                     "--model", str(fixtures_dir / "model_table.json"),
                     "--j", "3", "--strike", "0.01", "--paths", "1",
                     "--out", str(out)]) == 0
        blob = strict_json(out.read_text())
        assert blob["se"] is None and blob["paths"] == 1
        assert np.isfinite(blob["price"])

    def test_caplet_and_swaption_flags_conflict(self, fixtures_dir, capsys):
        rc = main(["mc-price", "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--j", "3", "--p", "2", "--q", "5", "--strike", "0.01"])
        assert rc == 1
        assert "either --j" in capsys.readouterr().err

    @pytest.mark.parametrize("leg", [["--p", "2"], ["--q", "10"]])
    def test_swaption_needs_both_legs(self, fixtures_dir, capsys, leg):
        rc = main(["mc-price", "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--strike", "0.03"] + leg)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SvLiborError") and "both --p and --q" in err
        assert len(err.splitlines()) == 1

    def test_swap_substitution_matches_library(self, tmp_path, fixtures_dir,
                                               tenor, curve, params, fact):
        out = tmp_path / "swap.json"
        rc = main(["mc-price", "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--p", "2", "--q", "10", "--strike", "0.02",
                   "--substitute", "swap", "--paths", "512",
                   "--steps-per-year", "4", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        cfg = MCConfig(paths=512, steps_per_year=4, seed=3,
                       substitution=("swap", 2, 10))
        want = mc_swaptions({(2, 10): np.array([0.02])}, tenor, curve, params,
                            fact, cfg)[(2, 10)][0]
        blob = json.loads(out.read_text())
        assert (blob["price"], blob["se"]) == (want.price, want.se)

    @pytest.mark.parametrize("instrument,mode", [
        (["--j", "3"], "swap"), (["--p", "2", "--q", "10"], "caplet")])
    def test_substitution_of_the_other_instrument_rejected(
            self, fixtures_dir, capsys, instrument, mode):
        rc = main(["mc-price", "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--strike", "0.02", "--substitute", mode] + instrument)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SvLiborError")
        assert f"--substitute {mode} needs" in err
        assert len(err.splitlines()) == 1

    def test_zero_threads_rejected(self, fixtures_dir, capsys):
        rc = main(["mc-price", "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--threads", "0"] + self.ARGS)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: InvariantError")

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_seed_outside_philox_keys_rejected(self, fixtures_dir, capsys,
                                               seed):
        rc = main(["mc-price", "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json")]
                  + self.ARGS + ["--seed", seed])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvariantError") and "seed" in err

    def test_malformed_threads_variable_fails_mc_commands_only(
            self, tmp_path, fixtures_dir, monkeypatch, capsys):
        monkeypatch.setenv("SVLIBOR_THREADS", "abc")
        curve = str(fixtures_dir / "curve_table.csv")
        assert main(["strip", "--curve", curve,
                     "--out", str(tmp_path / "libors.csv")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["mc-price", "--curve", curve,
                  "--model", str(fixtures_dir / "model_table.json")]
                 + self.ARGS)
        assert exc.value.code == 2
        assert "invalid int value: 'abc'" in capsys.readouterr().err


class TestCalibrate:
    @pytest.mark.filterwarnings("ignore:no panel")
    @pytest.mark.parametrize("kind", ["price", "vol"])
    def test_small_market_round_trip(self, tmp_path, kind):
        # The vol panel quotes the Black vols of the same Fourier prices,
        # on the displaced forward and strikes.
        curve_path, model_path = write_small_market(tmp_path)
        from svlibor.market_data import load_curve
        from svlibor.model import load_params
        tenor, curve = load_curve(curve_path)
        params = load_params(model_path)
        libors = strip_libors(curve, tenor)
        strikes = np.linspace(0.5, 1.6, 4) * libors[5]
        quotes = caplet_price(5, strikes, tenor, curve, params)
        if kind == "vol":
            alpha = params.alpha[5]
            discount = tenor.accruals()[5] * curve.bonds[6]
            quotes = [implied_vol(p, libors[5] + alpha, k + alpha,
                                  tenor.dates[5], discount)
                      for k, p in zip(strikes, quotes)]
        panel_path = tmp_path / "panels.csv"
        lines = ["expiry_index,strike,quote,quote_kind"]
        lines += [f"5,{k:.17g},{q:.17g},{kind}"
                  for k, q in zip(strikes, quotes)]
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
        # The subcommand passes the loaded market and nothing else: the
        # eval budget is the library's own.
        import svlibor.cli
        seen = []
        real = svlibor.cli.calibrate_all

        def spy(*args, **kwargs):
            seen.append((args, kwargs))
            return real(*args, **kwargs)

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
        (panels, got_params, got_tenor, got_curve), kwargs = seen[0]
        assert kwargs == {}
        assert [p.expiry for p in panels] == [5]
        assert np.array_equal(got_params.kappa, load_params(model_path).kappa,
                              equal_nan=True)
        assert np.array_equal(got_tenor.dates, tenor.dates)
        assert np.array_equal(got_curve.bonds, curve.bonds)
        fits = strict_json(out.read_text())["fits"]
        # Maturities without a panel are not fitted: null, not NaN.
        assert [f["objective"] for f in fits[:-1]] == [None] * 4
        assert [f["residual_rms"] for f in fits[:-1]] == [None] * 4
        fit = fits[-1]
        assert fit["iterations"] > 0
        assert isinstance(fit["status"], int) and fit["message"]
        assert fit["penalties"] == 0
        # Wall time of the maturity's solves.
        assert fit["seconds"] > 0.0
        # Each Jacobian counts as 4 evals, one per column.
        assert 0 < 4 * fit["jacobians"] < fit["iterations"]
        # The fit's rms residual, and the singular values of its 3 x 4
        # unit-column Jacobian.
        assert fit["residual_rms"] >= fit["objective"]
        assert len(fit["singular_values"]) == 3


    @pytest.mark.filterwarnings("ignore:no panel")
    def test_fit_report_leaves_an_undefined_vol_empty(self, tmp_path,
                                                      fixtures_dir, tenor,
                                                      curve, params, libors):
        # The last quote, twice the discounted displaced forward, has no
        # Black vol: its market_ivol cell is empty.
        j = 19
        strikes = np.linspace(0.6, 1.6, 7) * libors[j]
        quotes = caplet_price(j, strikes, tenor, curve, params)
        quotes[-1] = (2.0 * tenor.accruals()[j] * curve.bonds[j + 1]
                      * (libors[j] + params.alpha[j]))
        panel_path = tmp_path / "panels.csv"
        lines = ["expiry_index,strike,quote,quote_kind"]
        lines += [f"{j},{k:.17g},{q:.17g},price"
                  for k, q in zip(strikes, quotes)]
        panel_path.write_text("\n".join(lines) + "\n")
        report = tmp_path / "report.csv"
        rc = main(["calibrate",
                   "--curve", str(fixtures_dir / "curve_table.csv"),
                   "--model", str(fixtures_dir / "model_table.json"),
                   "--panels", str(panel_path), "--fit-report", str(report),
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 0
        rows = list(csv.DictReader(report.open()))
        empty = [row["market_ivol"] == "" for row in rows]
        assert empty == [False] * 6 + [True]
        assert all(row["model_ivol"] for row in rows)


class TestImpliedVol:
    def test_round_trip(self, capsys):
        price = 0.9 * black76(0.03, 2.0, 0.25, 0.03)
        rc = main(["implied-vol", "--price", f"{price:.17g}",
                   "--forward", "0.03", "--strike", "0.03",
                   "--expiry", "2.0", "--discount", "0.9"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["implied_vol"] == pytest.approx(0.25, abs=1e-8)

    @pytest.mark.parametrize("flag, value", [
        ("--expiry", "-1"), ("--discount", "0"), ("--discount", "-0.9"),
        ("--forward", "-0.03")])
    def test_invalid_input_is_a_typed_error(self, capsys, flag, value):
        # No numpy warning and no traceback: one typed error line, exit 1.
        args = {"--price": "0.01", "--forward": "0.03", "--strike": "0.03",
                "--expiry": "2.0", "--discount": "0.9", flag: value}
        rc = main(["implied-vol"] + [t for pair in args.items() for t in pair])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvariantError: ")
        assert captured.err.count("\n") == 1


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
