"""Curve stripping, swap statics and file loaders.

Reference values come from tests/oracles.py, which recomputes everything
with plain loops directly from the bond table.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svlibor import (
    CapletPanel,
    CurveError,
    DiscountCurve,
    InvariantError,
    ParseError,
    TenorStructure,
    load_curve,
    load_panel,
    strip_libors,
    swap_context,
)

import oracles

# Stripped from the shipped bond table by the loop oracle; frozen here so a
# regression in either implementation trips the comparison.
L1_EXPECTED = 0.033246849912276
L5_EXPECTED = 0.02785111911009297
SWAP_RATE_2_10 = 0.024219033242001517
ANNUITY_2_10 = 6.768726
XI_RATIO_2_10 = 0.999369322138368


def test_fixture_curve_shape(tenor, curve):
    assert tenor.n == 20
    assert curve.n == 20
    assert tenor.dates[0] == 0.0
    assert tenor.dates[-1] == 20.0
    assert curve.bonds[0] == 1.0
    assert curve.bonds[20] == 0.6115
    assert np.all(tenor.day_counts == 1.0)


def test_tenor_arrays_built_once_read_only(tenor):
    padded = np.full(tenor.n + 1, np.nan)
    padded[:-1] = np.diff(tenor.dates)
    for arr, want in ((tenor.day_counts, np.diff(tenor.dates)),
                      (tenor.accruals(), padded)):
        assert arr.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2.0
    assert tenor.accruals() is tenor.accruals()


def test_stripped_libors_match_oracle(tenor, curve, libors):
    ref = oracles.libors_from_bonds()
    assert np.isnan(libors[0]) and np.isnan(libors[20])
    np.testing.assert_allclose(libors[1:20], ref[1:20], rtol=0, atol=1e-15)
    assert libors[1] == pytest.approx(L1_EXPECTED, abs=1e-14)
    assert libors[5] == pytest.approx(L5_EXPECTED, abs=1e-14)


def test_flat_curve_gives_constant_forward():
    rate = 0.03
    dates = np.arange(0.0, 9.0)
    bonds = (1.0 + rate) ** -np.arange(1.0, 9.0)
    tenor = TenorStructure(dates)
    curve = DiscountCurve(bonds)
    L = strip_libors(curve, tenor)
    np.testing.assert_allclose(L[1:8], rate, rtol=0, atol=1e-13)


def test_swap_context_frozen_values(tenor, curve):
    ctx = swap_context(2, 10, curve, tenor)
    ann, rate, weights = oracles.swap_annuity_rate(2, 10)
    assert ctx.annuity == pytest.approx(ann, abs=1e-12)
    assert ctx.annuity == pytest.approx(ANNUITY_2_10, abs=1e-12)
    assert ctx.swap_rate == pytest.approx(SWAP_RATE_2_10, abs=1e-15)
    np.testing.assert_allclose(ctx.weights[2:10], weights, rtol=0, atol=1e-15)
    # Entries outside the leg stay zero.
    assert np.all(ctx.weights[:2] == 0.0) and np.all(ctx.weights[10:] == 0.0)


def test_swap_weights_sum_to_one(tenor, curve):
    for p, q in ((1, 3), (2, 10), (4, 10), (4, 20), (10, 20)):
        ctx = swap_context(p, q, curve, tenor)
        assert abs(ctx.weights.sum() - 1.0) <= 1e-14


def test_single_period_swap_is_the_forward(tenor, curve, libors):
    ctx = swap_context(7, 8, curve, tenor)
    assert ctx.swap_rate == pytest.approx(libors[7], abs=1e-15)
    assert ctx.weights[7] == 1.0
    assert ctx.xi[7] == pytest.approx(1.0, abs=1e-14)


def test_xi_weights_match_oracle(tenor, curve, libors):
    ctx = swap_context(2, 10, curve, tenor)
    xi_ref = oracles.swap_xi_weights(2, 10)
    np.testing.assert_allclose(ctx.xi[2:10], xi_ref, rtol=0, atol=1e-14)
    ratio = float(np.sum(ctx.xi[2:10] * libors[2:10]) / ctx.swap_rate)
    assert ratio == pytest.approx(XI_RATIO_2_10, abs=1e-12)
    # The frozen log-swap weights should reproduce the swap rate almost
    # exactly; the defect is what the freezing approximation gives up.
    assert 0.97 < ratio < 1.03


def test_swap_context_rejects_bad_leg(tenor, curve):
    with pytest.raises(IndexError):
        swap_context(5, 5, curve, tenor)
    with pytest.raises(IndexError):
        swap_context(0, 4, curve, tenor)
    with pytest.raises(IndexError):
        swap_context(3, 21, curve, tenor)


def test_tenor_validation():
    with pytest.raises(InvariantError, match="dates"):
        TenorStructure(np.array([0.0, 2.0, 1.0, 3.0]))
    with pytest.raises(InvariantError, match="dates"):
        TenorStructure(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InvariantError, match="dates"):
        TenorStructure(np.array([0.0, 1.0, np.inf]))
    with pytest.raises(InvariantError, match="at least") as exc:
        TenorStructure(np.array([0.0, 1.0]))
    assert exc.value.field == "dates"


def test_curve_validation():
    with pytest.raises(CurveError):
        DiscountCurve(np.array([0.99, -0.5]))
    with pytest.raises(CurveError):
        DiscountCurve(np.array([1.2, 0.9]))
    for bad in (np.nan, np.inf):
        with pytest.raises(CurveError):
            DiscountCurve(np.array([0.97, bad, 0.91]))
    with pytest.raises(InvariantError, match="at least") as exc:
        DiscountCurve(np.array([0.97]))
    assert exc.value.field == "bonds"


def test_load_curve_refuses_nan_bond(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("T,B\n1,0.97\n2,nan\n3,0.91\n")
    with pytest.raises(CurveError):
        load_curve(path)


def test_curve_tenor_length_mismatch(tenor):
    short = DiscountCurve(np.full(5, 0.9))
    with pytest.raises(CurveError):
        strip_libors(short, tenor)


def test_load_curve_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        load_curve(empty)

    bad_header = tmp_path / "hdr.csv"
    bad_header.write_text("time,df\n1,0.99\n")
    with pytest.raises(ParseError, match="header"):
        load_curve(bad_header)

    bad_cell = tmp_path / "cell.csv"
    bad_cell.write_text("T,B\n1,0.99\n2,oops\n")
    with pytest.raises(ParseError, match=r":3: bad discount factor"):
        load_curve(bad_cell)

    wide = tmp_path / "wide.csv"
    wide.write_text("T,B\n1,0.99\n2,0.98,x\n")
    with pytest.raises(ParseError, match=r":3: expected 2 columns, got 3"):
        load_curve(wide)

    header_only = tmp_path / "header_only.csv"
    header_only.write_text("T,B\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_curve(header_only)

    with pytest.raises(ParseError):
        load_curve(tmp_path / "missing.csv")


def test_load_panel_groups_and_sorts(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "expiry_index,strike,quote,quote_kind\n"
        "7,0.02,0.004,price\n"
        "3,0.01,0.009,vol\n"
        "7,0.03,0.002,price\n"
        "3,0.02,0.008,vol\n"
    )
    panels = load_panel(path)
    assert [p.expiry for p in panels] == [3, 7]
    assert panels[0].quote_kind == "vol"
    assert panels[1].quote_kind == "price"
    np.testing.assert_allclose(panels[1].strikes, [0.02, 0.03])


def test_load_panel_rejects_mixed_kinds(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(
        "expiry_index,strike,quote,quote_kind\n"
        "3,0.01,0.009,vol\n"
        "3,0.02,0.008,price\n"
    )
    with pytest.raises(InvariantError, match="quote_kind"):
        load_panel(path)


def test_load_panel_errors(tmp_path):
    header = "expiry_index,strike,quote,quote_kind\n"
    for name, text, message in (
            ("empty", "", "empty panel file"),
            ("hdr", "expiry,strike,quote,kind\n3,0.01,0.009,vol\n",
             "expected header"),
            ("wide", header + "3,0.01,0.009\n", r":2: expected 4 columns, got 3"),
            ("expiry", header + "3.5,0.01,0.009,vol\n",
             r":2: bad expiry index: '3.5'")):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_panel(path)


def test_panel_validation():
    with pytest.raises(InvariantError, match="strikes"):
        CapletPanel(expiry=3, strikes=np.array([0.02, 0.01]),
                    quotes=np.array([1.0, 1.0]))
    with pytest.raises(InvariantError, match="quotes"):
        CapletPanel(expiry=3, strikes=np.array([0.01, 0.02]),
                    quotes=np.array([1.0, -1.0]))
    with pytest.raises(InvariantError):
        CapletPanel(expiry=0, strikes=np.array([0.01]), quotes=np.array([1.0]))
    with pytest.raises(InvariantError, match="non-empty"):
        CapletPanel(expiry=3, strikes=np.array([]), quotes=np.array([]))
    with pytest.raises(InvariantError, match="length mismatch"):
        CapletPanel(expiry=3, strikes=np.array([0.01, 0.02]),
                    quotes=np.array([1.0]))
    with pytest.raises(InvariantError, match="quote_kind"):
        CapletPanel(expiry=3, strikes=np.array([0.01]),
                    quotes=np.array([1.0]), quote_kind="bid")


def test_panel_rejects_non_finite_entries():
    # A non-finite quote or strike must stop at the panel: a nan quote that
    # reaches the fit stops it with a misleading non-finite Jacobian.
    for bad in (np.nan, np.inf):
        with pytest.raises(InvariantError, match="quotes"):
            CapletPanel(expiry=3, strikes=np.array([0.01, 0.02]),
                        quotes=np.array([1.0, bad]))
        with pytest.raises(InvariantError, match="strikes"):
            CapletPanel(expiry=3, strikes=np.array([0.01, bad]),
                        quotes=np.array([1.0, 1.0]))


@given(
    rates=st.lists(st.floats(min_value=1e-4, max_value=0.2,
                             allow_nan=False), min_size=2, max_size=12),
)
@settings(max_examples=50)
def test_strip_round_trip_rebuilds_curve(rates):
    """Bonds -> Libors -> bonds is the identity given B_1."""
    n = len(rates) + 1
    bonds = [1.0 / (1.0 + rates[0])]
    for r in rates[1:]:
        bonds.append(bonds[-1] / (1.0 + r))
    bonds.append(bonds[-1] / 1.01)  # terminal bond, never stripped
    tenor = TenorStructure(np.arange(0.0, n + 1.0))
    curve = DiscountCurve(np.array(bonds))
    L = strip_libors(curve, tenor)
    rebuilt = [curve.bonds[1]]
    for j in range(1, n - 1):
        rebuilt.append(rebuilt[-1] / (1.0 + L[j]))
    np.testing.assert_allclose(rebuilt, curve.bonds[1:n], rtol=1e-12)


@given(
    rate=st.floats(min_value=1e-3, max_value=0.15, allow_nan=False),
    p=st.integers(min_value=1, max_value=4),
    span=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=50)
def test_flat_curve_xi_equals_weights(rate, p, span):
    """On a flat curve the xi weights collapse onto the annuity weights."""
    n = 10
    q = p + span
    dates = np.arange(0.0, n + 1.0)
    bonds = (1.0 + rate) ** -np.arange(1.0, n + 1.0)
    tenor = TenorStructure(dates)
    curve = DiscountCurve(bonds)
    ctx = swap_context(p, q, curve, tenor)
    assert ctx.swap_rate == pytest.approx(rate, abs=1e-13)
    np.testing.assert_allclose(ctx.xi[p:q], ctx.weights[p:q],
                               rtol=0, atol=1e-12)
