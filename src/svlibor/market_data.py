"""Market data: tenor structures, discount curves, swap contexts, quote panels.

Indexing convention used throughout the package: arrays that are indexed by
tenor position are padded so that entry ``i`` holds the quantity attached to
index ``i`` of the tenor structure.  Entry 0 is a placeholder: ``1.0`` for
bonds (a bond maturing today), NaN for Libors and other per-expiry scalars.
This keeps every formula in the code visually identical to its 1-based
mathematical form at the cost of one unused slot.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import CurveError, InvariantError, ParseError

__all__ = [
    "TenorStructure",
    "DiscountCurve",
    "CapletPanel",
    "SwapContext",
    "strip_libors",
    "swap_context",
    "load_curve",
    "load_panel",
]


def _read_only(raw) -> np.ndarray:
    """Read-only float array of ``raw``: shares a read-only one that owns its
    data (another record's), copies anything else, views included."""
    arr = np.asarray(raw, dtype=float)
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TenorStructure:
    """Ordered tenor dates T_0 .. T_n in years, with T_0 = 0.

    ``day_counts`` and ``accruals()`` are built once, read-only; a caller
    that writes into one copies it first.
    """

    dates: np.ndarray
    # delta_i = T_{i+1} - T_i for i = 0..n-1.
    day_counts: np.ndarray = field(init=False, repr=False)
    _accruals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dates = _read_only(self.dates)
        object.__setattr__(self, "dates", dates)
        if dates.ndim != 1 or dates.size < 3:
            raise InvariantError("dates", "need at least T_0, T_1, T_2")
        if dates[0] != 0.0:
            raise InvariantError("dates", "T_0 must be 0")
        day_counts = np.diff(dates)
        if not np.all((day_counts > 0.0) & (day_counts < np.inf)):
            raise InvariantError("dates", "tenor dates must be finite and "
                                 "strictly increasing")
        accruals = np.append(day_counts, np.nan)
        for name, arr in (("day_counts", day_counts), ("_accruals", accruals)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.dates.size - 1

    def accruals(self) -> np.ndarray:
        """Padded accrual array: entry j = delta_j for j = 0..n-1, NaN at n."""
        return self._accruals


@dataclass(frozen=True, eq=False)
class DiscountCurve:
    """Zero bond prices B_i(0), i = 1..n; stored padded with B_0 = 1."""

    bonds: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.bonds, dtype=float)
        if raw.ndim != 1 or raw.size < 2:
            raise InvariantError("bonds", "need at least B_1 and B_2")
        if not np.all(raw > 0.0):
            raise CurveError("bond price in curve is not a positive number")
        if np.any(raw > 1.0):
            raise CurveError("bond price above par in curve")
        padded = np.concatenate(([1.0], raw))
        object.__setattr__(self, "bonds", _read_only(padded))

    @property
    def n(self) -> int:
        return self.bonds.size - 1


@dataclass(frozen=True, eq=False)
class CapletPanel:
    """Price-strike quotes for the caplet expiring at T_j.

    ``quote_kind`` is per panel: either "price" (discounted caplet premia) or
    "vol" (Black implied volatilities to be converted during calibration).
    """

    expiry: int
    strikes: np.ndarray
    quotes: np.ndarray
    quote_kind: str = "price"

    def __post_init__(self):
        strikes = _read_only(self.strikes)
        quotes = _read_only(self.quotes)
        object.__setattr__(self, "strikes", strikes)
        object.__setattr__(self, "quotes", quotes)
        if self.expiry < 1:
            raise InvariantError("expiry", "expiry index must be >= 1")
        if strikes.size == 0:
            raise InvariantError("strikes", "panel must be non-empty")
        if strikes.size != quotes.size:
            raise InvariantError("quotes", "strikes and quotes length mismatch")
        if not np.all(np.isfinite(strikes)):
            raise InvariantError("strikes", "strikes must be finite")
        if not np.all(np.diff(strikes) > 0.0):
            raise InvariantError("strikes", "strikes must be strictly increasing")
        if not np.all((quotes > 0.0) & (quotes < np.inf)):
            raise InvariantError("quotes", "quotes must be positive and finite")
        if self.quote_kind not in ("price", "vol"):
            raise InvariantError("quote_kind", f"unknown kind {self.quote_kind!r}")


@dataclass(frozen=True, eq=False)
class SwapContext:
    """Frozen time-0 swap quantities for the leg [T_p, T_q].

    ``weights`` and ``xi`` are padded arrays whose entries l = p..q-1 hold
    w_l and xi_l; all other entries are 0.
    """

    p: int
    q: int
    annuity: float
    weights: np.ndarray
    swap_rate: float
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _read_only(self.weights))
        object.__setattr__(self, "xi", _read_only(self.xi))


def strip_libors(curve: DiscountCurve, tenor: TenorStructure) -> np.ndarray:
    """Forward Libors L_j(0) = (B_j/B_{j+1} - 1)/delta_j, padded, j = 1..n-1."""
    n = tenor.n
    if curve.n != n:
        raise CurveError(f"curve has {curve.n} bonds, tenor needs {n}")
    B = curve.bonds
    delta = tenor.accruals()
    L = np.full(n + 1, np.nan)
    L[1:n] = (B[1:n] / B[2:n + 1] - 1.0) / delta[1:n]
    L.setflags(write=False)
    return L


def swap_context(p: int, q: int, curve: DiscountCurve,
                 tenor: TenorStructure) -> SwapContext:
    """Annuity, frozen weights, swap rate and xi weights for the leg [p, q].

    B_pq = sum_{l=p}^{q-1} delta_l B_{l+1},  w_l = delta_l B_{l+1} / B_pq,
    S = (B_p - B_q)/B_pq, and the frozen log-swap-rate weights

        xi_j = delta_j/(1 + delta_j L_j) * (S * sum_{l=j}^{q-1} w_l + B_q/B_pq).
    """
    n = tenor.n
    if not (1 <= p < q <= n):
        raise IndexError(f"need 1 <= p < q <= {n}, got p={p}, q={q}")
    B = curve.bonds
    delta = tenor.accruals()
    L = strip_libors(curve, tenor)

    leg = np.arange(p, q)
    terms = delta[leg] * B[leg + 1]
    annuity = float(terms.sum())
    weights = np.zeros(n + 1)
    weights[leg] = terms / annuity
    swap_rate = float((B[p] - B[q]) / annuity)

    # Tail sums sum_{l=j}^{q-1} w_l, built back to front so each xi_j reuses
    # the previous partial sum.
    tail = np.zeros(n + 1)
    tail[leg] = np.cumsum(weights[leg][::-1])[::-1]
    xi = np.zeros(n + 1)
    xi[leg] = (delta[leg] / (1.0 + delta[leg] * L[leg])
               * (swap_rate * tail[leg] + B[q] / annuity))
    return SwapContext(p=p, q=q, annuity=annuity, weights=weights,
                       swap_rate=swap_rate, xi=xi)


def _read_rows(path) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [(i + 1, row) for i, row in enumerate(csv.reader(fh))
                    if any(cell.strip() for cell in row)]
    except OSError as exc:
        raise ParseError(path, 0, str(exc)) from exc


def _parse_float(path, line_no: int, cell: str, what: str) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise ParseError(path, line_no, f"bad {what}: {cell!r}") from exc


def load_curve(path) -> tuple[TenorStructure, DiscountCurve]:
    """Read a `T,B` CSV of tenor dates and discount factors (T_0 = 0 implied)."""
    rows = _read_rows(path)
    if not rows:
        raise ParseError(path, 0, "empty curve file")
    header_no, header = rows[0]
    if [c.strip() for c in header] != ["T", "B"]:
        raise ParseError(path, header_no, "expected header 'T,B'")
    dates = [0.0]
    bonds = []
    for line_no, row in rows[1:]:
        if len(row) != 2:
            raise ParseError(path, line_no, f"expected 2 columns, got {len(row)}")
        dates.append(_parse_float(path, line_no, row[0], "tenor time"))
        bonds.append(_parse_float(path, line_no, row[1], "discount factor"))
    if not bonds:
        raise ParseError(path, header_no, "curve file has no data rows")
    return TenorStructure(np.array(dates)), DiscountCurve(np.array(bonds))


def load_panel(path) -> list[CapletPanel]:
    """Read an `expiry_index,strike,quote,quote_kind` CSV into panels.

    Rows are grouped by expiry index; the quote kind must be uniform within
    each group.  Panels are returned sorted by expiry.
    """
    rows = _read_rows(path)
    if not rows:
        raise ParseError(path, 0, "empty panel file")
    header_no, header = rows[0]
    if [c.strip() for c in header] != ["expiry_index", "strike", "quote", "quote_kind"]:
        raise ParseError(path, header_no,
                         "expected header 'expiry_index,strike,quote,quote_kind'")
    grouped: dict[int, list[tuple[float, float, str]]] = {}
    for line_no, row in rows[1:]:
        if len(row) != 4:
            raise ParseError(path, line_no, f"expected 4 columns, got {len(row)}")
        try:
            j = int(row[0])
        except ValueError as exc:
            raise ParseError(path, line_no, f"bad expiry index: {row[0]!r}") from exc
        strike = _parse_float(path, line_no, row[1], "strike")
        quote = _parse_float(path, line_no, row[2], "quote")
        kind = row[3].strip()
        grouped.setdefault(j, []).append((strike, quote, kind))
    panels = []
    for j in sorted(grouped):
        entries = grouped[j]
        kinds = {kind for _, _, kind in entries}
        if len(kinds) != 1:
            raise InvariantError("quote_kind",
                                 f"mixed quote kinds {sorted(kinds)} for expiry {j}")
        strikes = np.array([s for s, _, _ in entries])
        quotes = np.array([v for _, v, _ in entries])
        panels.append(CapletPanel(expiry=j, strikes=strikes, quotes=quotes,
                                  quote_kind=kinds.pop()))
    return panels
