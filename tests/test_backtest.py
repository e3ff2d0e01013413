"""Tests for CSV market-data loading and the walk-forward backtester."""
from __future__ import annotations

import builtins
import datetime
import io
import json
import math

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import find_no_sa_mu, reference_load_csv
from statarb import backtest, strategies
from statarb.backtest import (
    CYCLES_HEADER,
    DT,
    BacktestConfig,
    BacktestResult,
    MarketSeries,
    dump_csv,
    dump_cycles_csv,
    dump_summary_json,
    load_csv,
    run_backtest,
    summary_json,
)
from statarb.errors import (
    DegenerateSeries,
    InsufficientData,
    NonMonotoneDates,
    ParseError,
)
from statarb.gbm import GbmParams, embedded_phi, embedded_q, mle_from_returns
from statarb.paths import TradeLedger, simulate_gbm
from statarb.strategies import leg_table, run_cycle

START = datetime.date(2000, 1, 3)
DATA = Path(__file__).resolve().parent / "data"


def daily_dates(n: int) -> tuple[datetime.date, ...]:
    return tuple(START + datetime.timedelta(days=k) for k in range(n))


def gbm_series(seed: int, years: float = 18.0, mu: float = 0.12,
               sigma: float = 0.08) -> MarketSeries:
    n_steps = round(252 * years)
    params = GbmParams(mu=mu, sigma=sigma, s0=100.0, horizon=years,
                       n_steps=n_steps)
    path = simulate_gbm(params, seed=seed)
    return MarketSeries(daily_dates(n_steps + 1), path.prices)


def ramp_series(n: int, g: float, w: float,
                base: float = 95.0) -> np.ndarray:
    """Closes whose log-returns alternate g+w, g-w (positive variance)."""
    steps = np.full(n - 1, g)
    steps[1::2] -= w
    steps[0::2] += w
    return base * np.exp(np.concatenate(([0.0], np.cumsum(steps))))


# --------------------------------------------------------------------- io


def test_load_csv_minimal():
    series = load_csv(io.StringIO("date,close\n2020-01-02,3.5\n"
                                  "2020-01-03,4.0\n"))
    assert series.n_points == 2
    assert series.dates == (datetime.date(2020, 1, 2),
                            datetime.date(2020, 1, 3))
    assert series.closes.tolist() == [3.5, 4.0]


def test_load_csv_skips_metadata_and_blank_lines():
    text = "# version=0.1.0\n# seed=7\ndate,close\n\n2020-01-02,3.5\n"
    assert load_csv(io.StringIO(text)).n_points == 1


def test_load_csv_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        load_csv(io.StringIO("date,close\n2020-01-02,-3.5\n"))
    assert err.value.line_number == 2
    with pytest.raises(ParseError) as err:
        load_csv(io.StringIO("date,close\n2020-01-02,1.0\nnot-a-date,2\n"))
    assert err.value.line_number == 3
    with pytest.raises(ParseError):
        load_csv(io.StringIO("date,close\n2020-01-02,xyz\n"))
    with pytest.raises(ParseError):
        load_csv(io.StringIO("date,close\n2020-01-02,1.0,extra\n"))
    with pytest.raises(ParseError):
        load_csv(io.StringIO("time,price\n2020-01-02,1.0\n"))
    with pytest.raises(ParseError):
        load_csv(io.StringIO("date,close\n"))
    with pytest.raises(ParseError):
        load_csv(io.StringIO(""))
    with pytest.raises(NonMonotoneDates):
        load_csv(io.StringIO("date,close\n2020-01-03,1.0\n2020-01-02,2.0\n"))


def test_market_series_validation():
    with pytest.raises(ValueError):
        MarketSeries(daily_dates(3), np.array([1.0, 2.0]))
    # as many closes as dates, in the wrong shape
    with pytest.raises(ValueError, match="^closes must be 1-d$"):
        MarketSeries(daily_dates(6), np.ones((2, 3)))
    with pytest.raises(ValueError):
        MarketSeries((), np.array([]))
    with pytest.raises(ValueError):
        MarketSeries(daily_dates(2), np.array([1.0, -2.0]))
    with pytest.raises(NonMonotoneDates):
        MarketSeries((START, START), np.array([1.0, 2.0]))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_market_series_rejects_non_finite_closes(value, recwarn):
    # an inf close used to pass, and run_backtest then failed naming sigma
    closes = np.full(400, 50.0)
    closes[300] = value
    dates = daily_dates(400)
    with pytest.raises(ValueError, match=(
            rf"^closes must be finite, got {value!r} on {dates[300]}$")):
        MarketSeries(dates, closes)
    assert not recwarn.list


def test_market_series_leaves_the_callers_array_writeable():
    mine = np.array([1.0, 2.0])
    series = MarketSeries(daily_dates(2), mine)
    mine[0] = 3.0
    assert series.closes.tolist() == [1.0, 2.0]
    assert not series.closes.flags.writeable
    # a read-only array is shared, not copied
    locked = np.array([1.0, 2.0])
    locked.setflags(write=False)
    assert MarketSeries(daily_dates(2), locked).closes is locked


def test_dump_load_round_trip_is_exact():
    series = gbm_series(seed=11, years=1.0)
    buf = io.StringIO()
    dump_csv(series, buf, metadata={"seed": "11"})
    again = load_csv(io.StringIO(buf.getvalue()))
    assert again.dates == series.dates
    assert np.array_equal(again.closes, series.closes)


def test_load_csv_from_path(tmp_path):
    target = tmp_path / "prices.csv"
    target.write_text("date,close\n2020-01-02,3.5\n")
    assert load_csv(target).n_points == 1
    assert load_csv(str(target)).n_points == 1


@pytest.mark.parametrize("text", ["date,close\n2020-01-02,3.5\n",
                                  "# seed=7\ndate,close\n2020-01-02,3.5\n"])
def test_load_csv_from_path_skips_a_byte_order_mark(text, tmp_path):
    # a UTF-8 byte-order mark before the header or a leading comment
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    got, want = load_csv(marked), load_csv(plain)
    assert (got.dates, got.closes.tolist()) == (want.dates,
                                                want.closes.tolist())


# CSV texts for the parser oracle: valid rows on mostly increasing dates,
# mixed with metadata, blank lines, a missing or repeated header, rows of
# 1 or 3 fields, bad dates and bad, zero, negative or non-finite prices,
# each line padded with whitespace and ended by LF, CRLF or nothing; a
# preamble of blank, whitespace-only and metadata lines comes first
BAD_DATES = st.sampled_from(["2020-13-01", "2020-02-30", "01/02/2020",
                             "2020-1-5", "", "date", "x"])
BAD_PRICES = st.sampled_from(["abc", "", "0", "0.0", "-0", "-1.5", "nan",
                              "NaN", "inf", "-inf", "1e999", "--1"])
GOOD_PRICES = st.one_of(
    st.floats(min_value=1e-6, max_value=1e9).map(repr),
    st.sampled_from(["3.5", "100", "1e2", "+7.25", ".5", "1_000"]))
PADDING = st.sampled_from(["", " ", "\t", "  "])
ENDINGS = st.sampled_from(["\n", "\r\n"])
PREAMBLE = st.sampled_from(["", "# seed=7", "#", "#date,close"])


@st.composite
def csv_texts(draw) -> str:
    day = datetime.date(1990, 1, 1).toordinal()
    lines = [draw(PADDING) + draw(PREAMBLE) + draw(PADDING) + draw(ENDINGS)
             for _ in range(draw(st.integers(0, 3)))]
    if draw(st.integers(0, 9)):
        lines.append("date,close\n")
    elif draw(st.booleans()):
        lines.append("time,price\n")
    # half the texts hold only well-formed lines, so that most parse
    kinds = ["row", "row", "row", "comment", "blank"]
    if draw(st.booleans()):
        kinds += ["fields", "date", "price", "header"]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        day += draw(st.integers(0, 9)) != 0  # a repeated day: non-monotone
        iso = datetime.date.fromordinal(day).isoformat()
        if kind == "row":
            line = f"{iso},{draw(GOOD_PRICES)}"
        elif kind == "comment":
            line = draw(st.sampled_from(["# seed=7", "#", "#date,close"]))
        elif kind == "blank":
            line = ""
        elif kind == "fields":
            line = draw(st.sampled_from(
                [iso, f"{iso},1.0,2.0", f"{iso},,", "1.0"]))
        elif kind == "date":
            line = f"{draw(BAD_DATES)},{draw(GOOD_PRICES)}"
        elif kind == "price":
            line = f"{iso},{draw(BAD_PRICES)}"
        else:
            line = "date,close"
        lines.append(draw(PADDING) + line + draw(PADDING) + draw(ENDINGS))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def _parse_outcome(parse, text: str):
    """The parsed series, or the error's type, message and line number."""
    try:
        series = parse(io.StringIO(text))
    except (ParseError, NonMonotoneDates) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line_number",
                                                     None)
    return series.dates, series.closes.tolist()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(csv_texts())
@example("date,close\r\n 2020-01-02,3.5 \r\n\r\n# x\r\n2020-01-03,inf\r\n")
@example("\n\n  # meta\ndate,close\n2020-01-02,1.0,2.0\n")
@example("date,close\n2020-01-02,1.0\n2020-01-02,2.0\n")
@example("# seed=7\n\n  #\n")  # missing header, line 1
@example("\n# seed=7\n date,close ")  # no data rows, line 2
def test_load_csv_equals_reference_loop(text):
    assert _parse_outcome(load_csv, text) == \
        _parse_outcome(reference_load_csv, text)


# blocks of one line, and of a few lines, put fast blocks, loop blocks and
# errors past the first block into texts that fit one production block
@pytest.mark.parametrize("block", [1, 48])
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=csv_texts())
@example(text="date,close\r\n 2020-01-02,3.5 \r\n\r\n# x\r\n2020-01-03,inf\r\n")
@example(text="date,close\n2020-01-02,1.0\n\n\n2020-01-03,2.0\n2020-01-04,x\n")
@example(text="date,close\n2020-01-02,1.0\n2020-01-02,2.0\n")
@example(text="# seed=7\n\n  #\n")
@example(text="\n# seed=7\n date,close ")
def test_load_csv_in_small_blocks_equals_reference_loop(block, text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backtest, "CSV_BLOCK", block)
        assert _parse_outcome(load_csv, text) == \
            _parse_outcome(reference_load_csv, text)


def test_two_block_file_loads_bit_for_bit(monkeypatch):
    target = DATA / "gbm_up.csv"
    assert target.stat().st_size > backtest.CSV_BLOCK
    read_rows = backtest._read_rows
    fast = []

    def spy(lines):
        fast.append(read_rows(lines))
        return fast[-1]

    monkeypatch.setattr(backtest, "_read_rows", spy)
    series, want = load_csv(target), reference_load_csv(target)
    assert fast and all(rows is not None for rows in fast)
    assert series.dates == want.dates
    assert series.closes.tobytes() == want.closes.tobytes()


def test_rows_after_the_header_go_to_numpy_first(monkeypatch):
    # the header is read before the blocks, so no block of well-formed
    # rows goes through the line loop, the header's block included
    rows = [f"{datetime.date(1990, 1, 1) + datetime.timedelta(days=k)},"
            f"{100.0 + k / 7!r}\n" for k in range(10_000)]
    text = "# seed=7\n#\n# rows=10000\ndate,close\n" + "".join(rows)
    parse_lines = backtest._parse_lines
    calls = []

    def spy(*args):
        calls.append(args)
        return parse_lines(*args)

    monkeypatch.setattr(backtest, "_parse_lines", spy)
    for source in (lambda: DATA / "gbm_up.csv", lambda: io.StringIO(text)):
        series, want = load_csv(source()), reference_load_csv(source())
        assert series.dates == want.dates
        assert series.closes.tobytes() == want.closes.tobytes()
    assert calls == []


def test_bad_price_past_the_first_block_names_its_line():
    rows = [f"{datetime.date(1990, 1, 1) + datetime.timedelta(days=k)},"
            f"{100.0 + k / 7!r}\n" for k in range(4000)]
    text = "date,close\n" + "".join(rows)
    assert len(text) > backtest.CSV_BLOCK
    text += "2001-01-01,12x\n"
    outcome = _parse_outcome(load_csv, text)
    assert outcome == _parse_outcome(reference_load_csv, text)
    assert outcome == ("ParseError", "line 4002: bad price '12x'", 4002)


def test_blank_and_comment_blocks_record_no_warning(monkeypatch, recwarn):
    # numpy's reader warns "input contained no data" on a blank line
    monkeypatch.setattr(backtest, "CSV_BLOCK", 1)
    text = "date,close\n\n2020-01-02,3.5\n\n# x\n\n2020-01-03,4.0\n\n"
    assert load_csv(io.StringIO(text)).closes.tolist() == [3.5, 4.0]
    assert not recwarn.list


# numpy's reader reads a close only where float() does, to float()'s
# value; the closes it rejects go through the line loop.  None: the loop's
# non-positive price error
@pytest.mark.parametrize("text, numpy_reads, close", [
    ("1_0", False, 10.0),
    ("٥", False, 5.0),
    ("inf", True, None),
    ("nan", True, None),
    ("1e999", True, None),
    (" 5 ", True, 5.0),
    ("5.", True, 5.0),
    (".5", True, 0.5),
    ("+5", True, 5.0),
    ("1E5", True, 1e5),
])
def test_numpy_reader_agrees_with_float(text, numpy_reads, close,
                                        monkeypatch):
    line = f"2020-01-02,{text}\n"
    try:
        read = np.loadtxt([line], delimiter=",", dtype=backtest._CSV_ROW,
                          comments=None)["close"]
    except ValueError:
        read = None
    assert (read is not None) == numpy_reads
    if numpy_reads:
        assert repr(float(read)) == repr(float(text))
    monkeypatch.setattr(backtest, "CSV_BLOCK", 1)  # the row is a block
    got = _parse_outcome(load_csv, "date,close\n" + line)
    if close is None:
        assert got == ("ParseError", f"line 2: non-positive price "
                                     f"{text!r}", 2)
    else:
        assert got == ((datetime.date(2020, 1, 2),), [close])


# ----------------------------------------------------------- configuration


def test_backtest_config_validation():
    with pytest.raises(ValueError):
        BacktestConfig(boundary_fraction=0.0)
    with pytest.raises(ValueError):
        BacktestConfig(boundary_fraction=0.5)
    with pytest.raises(ValueError):
        BacktestConfig(boundary_fraction=0.1, window_days=59)
    with pytest.raises(ValueError):
        BacktestConfig(boundary_fraction=0.1, alpha=-1.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            BacktestConfig(boundary_fraction=0.1, alpha=value)
    assert BacktestConfig(boundary_fraction=0.1).window_days == 756


def test_insufficient_data():
    series = gbm_series(seed=1, years=1.0)  # 253 points
    with pytest.raises(InsufficientData, match="^need more than 253 "
                                               "observations, have 253$"):
        run_backtest(series, BacktestConfig(boundary_fraction=0.1,
                                            window_days=252))


def test_constant_series_degenerates_before_any_window(monkeypatch):
    calls = []

    def counted(returns, dt):
        calls.append(len(returns))
        return mle_from_returns(returns, dt)

    monkeypatch.setattr(backtest, "mle_from_returns", counted)
    series = MarketSeries(daily_dates(2000), np.full(2000, 50.0))
    with pytest.raises(DegenerateSeries, match="return variance is zero"):
        run_backtest(series, BacktestConfig(boundary_fraction=0.1,
                                            window_days=60))
    assert calls == [1997]  # one estimate over the returns of all windows


def test_constant_series_degenerates():
    series = MarketSeries(daily_dates(80), np.full(80, 50.0))
    with pytest.raises(DegenerateSeries):
        run_backtest(series, BacktestConfig(boundary_fraction=0.1,
                                            window_days=60))


# ----------------------------------------------------------- hand traces


def barrier_stairs(anchor: float, c: float, direction: int) -> list[float]:
    """Anchor and the three schedule barriers, written with the engine's
    own float expressions so the staircase touches them exactly."""
    if direction > 0:
        return [anchor, anchor * (1 + c), anchor * (1 + 2 * c),
                anchor * (1 + 4 * c)]
    return [anchor, anchor * (1 - c), anchor * (1 - 2 * c),
            anchor * (1 - 4 * c)]


def hand_trace_series(direction: int) -> MarketSeries:
    """61-point estimation ramp with drift sign ``direction``, then an
    exact barrier staircase for c=0.1: anchor 100 -> first barrier ->
    trend barrier -> third-leg barrier, then a flat tail."""
    window = ramp_series(61, g=direction * 0.10 / 252.0, w=0.002,
                         base=100.0 * math.exp(-direction * 60 * 0.10 / 252))
    stairs = barrier_stairs(100.0, 0.1, direction)
    tail = [stairs[-1]] * 6
    closes = np.concatenate((window[:-1], stairs, tail))
    return MarketSeries(daily_dates(closes.size), closes)


def test_positive_trend_cycle_hand_trace():
    series = hand_trace_series(+1)
    led = TradeLedger()
    res = run_backtest(series,
                       BacktestConfig(boundary_fraction=0.1,
                                      window_days=60), ledger=led)
    assert res.n_cycles == 1
    cycle = res.cycles[0]
    mu_ref, sigma_ref = mle_from_returns(np.diff(np.log(series.closes[0:60])),
                                         DT)
    assert cycle.mu_hat == mu_ref and cycle.sigma_hat == sigma_ref
    assert mu_ref > 0 and cycle.orientation == "positive"
    assert cycle.cycle_start == series.dates[60]
    assert cycle.cycle_end == series.dates[63]
    # the continuation scenario realizes its unit target gain exactly
    assert cycle.pnl == pytest.approx(1.0, abs=1e-9)
    # schedule executed at the staircase prices
    stairs = barrier_stairs(100.0, 0.1, +1)
    assert [e[0] for e in led.events[:4]] == [60, 61, 62, 63]
    assert [e[1] for e in led.events[:4]] == stairs
    assert led.open_position == 0.0
    # second cycle opened at the staircase top, liquidated flat at the tail
    assert led.events[4][:2] == (63, stairs[-1])
    assert res.total_pnl == pytest.approx(1.0, abs=1e-9)


def test_negative_trend_cycle_hand_trace():
    series = hand_trace_series(-1)
    led = TradeLedger()
    res = run_backtest(series,
                       BacktestConfig(boundary_fraction=0.1,
                                      window_days=60), ledger=led)
    cycle = res.cycles[0]
    assert cycle.mu_hat < 0 and cycle.orientation == "negative"
    assert cycle.pnl == pytest.approx(1.0, abs=1e-9)
    assert [e[1] for e in led.events[:4]] == barrier_stairs(100.0, 0.1, -1)
    assert led.open_position == 0.0


def test_reversal_cycle_pays_alpha():
    # up to the trend barrier, then back to the anchor: target alpha
    window = ramp_series(61, g=0.10 / 252.0, w=0.02, base=100.0)
    base = float(window[-1])
    c = 0.1
    stairs = [base, base * (1 + c), base * (1 + 2 * c), base]
    closes = np.concatenate((window[:-1], stairs, [base] * 4))
    series = MarketSeries(daily_dates(closes.size), closes)
    res = run_backtest(series, BacktestConfig(boundary_fraction=c,
                                              window_days=60, alpha=0.25))
    assert res.n_cycles >= 1
    assert res.cycles[0].pnl == pytest.approx(0.25, abs=1e-9)


def test_critical_drift_windows_are_skipped():
    # every sliding 60-return window reproduces exactly the critical
    # (mu, sigma), so every cycle start is skipped and nothing trades
    c, sigma, dt = 0.02, 0.1, 1.0 / 252.0
    mu_star = find_no_sa_mu(c, sigma)
    g = (mu_star - 0.5 * sigma * sigma) * dt
    w = sigma * math.sqrt(59.0 * dt / 60.0)
    closes = ramp_series(81, g=g, w=w, base=100.0)
    series = MarketSeries(daily_dates(81), closes)
    led = TradeLedger()
    res = run_backtest(series, BacktestConfig(boundary_fraction=c,
                                              window_days=61), ledger=led)
    assert res.n_cycles == 0
    assert res.total_pnl == 0.0 and res.gpta == 0.0
    assert led.events == []
    assert res.skipped == {"zero_variance": 0, "NoSaExists": 81 - 1 - 61,
                           "DegenerateModel": 0}


@pytest.mark.parametrize("boundary", [0.25, 0.3])
def test_trend_level_at_or_below_zero_is_skipped(boundary):
    # a negative-drift window at c >= 1/4 puts the trend level a(1 - 4c) at
    # or below 0, which GBM never reaches: the window is skipped, not traded
    res = run_backtest(load_csv(DATA / "gbm_up.csv"),
                       BacktestConfig(boundary_fraction=boundary))
    assert res.skipped["DegenerateModel"] > 0
    assert res.n_cycles > 0
    assert all(log.orientation == "positive" for log in res.cycles)


def test_collapsed_grid_at_one_anchor_is_skipped():
    # at this c the levels anchor*(1 - 2c) and anchor*(1 - c) are one float
    # at the first cycle's anchor: that window is skipped, the walk goes on
    c, anchor = 1.7869141059965552e-16, 1569.3101395953286
    window = ramp_series(60, g=0.001, w=0.01, base=1500.0)
    closes = np.concatenate((window, [anchor, 2000.0, 2020.0, 1990.0]))
    series = MarketSeries(daily_dates(closes.size), closes)
    res = run_backtest(series, BacktestConfig(boundary_fraction=c,
                                              window_days=60))
    assert res.skipped["DegenerateModel"] == 1
    assert sum(res.skipped.values()) == closes.size - 1 - 60


# ------------------------------------------------------------- properties


def test_backtest_ends_flat_and_accounts_cycles():
    for seed in range(6):
        series = gbm_series(seed=seed, years=8.0)
        led = TradeLedger()
        res = run_backtest(series, BacktestConfig(boundary_fraction=0.05),
                           ledger=led)
        assert led.open_position == 0.0
        assert res.total_pnl == led.cash
        assert res.traded_qty == pytest.approx(
            sum(abs(d) for _, _, d in led.events), rel=1e-12)
        assert res.traded_notional == pytest.approx(
            sum(abs(d) * p for _, p, d in led.events), rel=1e-12)
        if res.traded_notional > 0:
            assert res.gpta == res.total_pnl / res.traded_notional
        # completed-cycle P&Ls replay from the ledger: cash at the
        # n_cycles-th return to a flat position
        if res.n_cycles:
            marks = _flat_marks(led)
            assert sum(c.pnl for c in res.cycles) == pytest.approx(
                marks[res.n_cycles - 1], rel=1e-9, abs=1e-12)


def _flat_marks(led: TradeLedger) -> list[float]:
    cash, position, marks = 0.0, 0.0, []
    for _, price, delta in led.events:
        cash -= delta * price
        position += delta
        if position == 0.0:
            marks.append(cash)
    return marks


def test_backtest_chains_past_positive_cycles():
    series = gbm_series(seed=3)
    res = run_backtest(series, BacktestConfig(boundary_fraction=0.10))
    assert res.n_cycles > 1
    assert any(c.pnl > 0 for c in res.cycles[:-1])  # no stop-at-positive


def test_no_look_ahead():
    series = gbm_series(seed=5, years=10.0)
    cut = 1800
    bumped = series.closes.copy()
    bumped[cut:] *= np.linspace(1.0, 1.4, bumped.size - cut)
    perturbed = MarketSeries(series.dates, bumped)
    cfg = BacktestConfig(boundary_fraction=0.05)
    led_a, led_b = TradeLedger(), TradeLedger()
    res_a = run_backtest(series, cfg, ledger=led_a)
    res_b = run_backtest(perturbed, cfg, ledger=led_b)
    events_a = [e for e in led_a.events if e[0] < cut]
    events_b = [e for e in led_b.events if e[0] < cut]
    # a cycle straddling the cut may diverge after it; decisions before
    # the cut are identical
    assert events_a == events_b
    done_a = [c for c in res_a.cycles if c.cycle_end < series.dates[cut]]
    done_b = [c for c in res_b.cycles if c.cycle_end < series.dates[cut]]
    assert done_a == done_b


def test_gpta_invariant_under_currency_rescaling():
    series = gbm_series(seed=9, years=10.0)
    scaled = MarketSeries(series.dates, series.closes * 100.0)
    cfg = BacktestConfig(boundary_fraction=0.05)
    res = run_backtest(series, cfg)
    res_scaled = run_backtest(scaled, cfg)
    assert res.n_cycles == res_scaled.n_cycles
    assert res_scaled.gpta == pytest.approx(res.gpta, rel=1e-6)
    assert res_scaled.total_pnl == pytest.approx(res.total_pnl, rel=1e-6)
    assert res_scaled.traded_qty == pytest.approx(res.traded_qty / 100.0,
                                                  rel=1e-6)


def test_synthetic_gbm_majority_positive_gpta():
    # smaller-scale companion of the acceptance run
    positive = 0
    for seed in range(10):
        res = run_backtest(gbm_series(seed=seed),
                           BacktestConfig(boundary_fraction=0.10))
        if res.gpta > 0:
            positive += 1
    assert positive >= 6


# ------------------------------------------------------------------ output


def test_summary_json_and_cycles_csv():
    series = gbm_series(seed=3)
    res = run_backtest(series, BacktestConfig(boundary_fraction=0.10))
    payload = summary_json(res)
    assert set(payload) == {"gpta", "n_cycles", "total_pnl", "traded_qty",
                            "traded_notional", "window_days",
                            "boundary_fraction"}
    buf = io.StringIO()
    dump_summary_json(res, buf, metadata={"seed": "3"})
    parsed = json.loads(buf.getvalue())
    assert parsed["_meta"] == {"seed": "3"}
    assert parsed["gpta"] == res.gpta
    assert parsed["n_cycles"] == res.n_cycles

    buf = io.StringIO()
    dump_cycles_csv(res, buf, metadata={"seed": "3"})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=3"
    assert lines[1] == CYCLES_HEADER
    assert len(lines) == 2 + res.n_cycles
    first = lines[2].split(",")
    assert datetime.date.fromisoformat(first[0]) == res.cycles[0].cycle_start
    assert float(first[2]) == res.cycles[0].mu_hat
    assert first[4] in ("positive", "negative")
    assert float(first[5]) == res.cycles[0].pnl


def test_flat_stretch_skips_only_its_windows():
    # stale quotes, then a jump back to the GBM path: the jump ends a cycle
    # whose trailing window is entirely flat
    closes = np.array(gbm_series(0, years=8.0).closes)
    flat = slice(1000, 1080)  # longer than the window
    closes[flat] = closes[flat.start]
    series = MarketSeries(daily_dates(closes.size), closes)
    config = BacktestConfig(boundary_fraction=0.02, window_days=60)
    result = run_backtest(series, config)
    assert result.n_cycles > 0
    assert math.isfinite(result.total_pnl)
    starts = [series.dates.index(cyc.cycle_start) for cyc in result.cycles]
    flat_windows = range(flat.start + config.window_days + 1, flat.stop + 1)
    assert not set(starts) & set(flat_windows)
    assert max(starts) > flat.stop
    assert 0 < result.skipped["zero_variance"] <= len(flat_windows)
    assert result.skipped["NoSaExists"] == 0
    # before the stretch the walk is the one of the series cut there
    prefix = MarketSeries(series.dates[:flat.start], closes[:flat.start])
    early = run_backtest(prefix, config).cycles
    assert early and result.cycles[:len(early)] == early


# ------------------------------------------------------------ diagnostics


@pytest.mark.parametrize("name", ["gbm_up.csv", "gbm_down.csv"])
def test_cutoff_pnl_is_the_cycle_open_at_end_of_data(name):
    series = load_csv(DATA / name)
    led = TradeLedger()
    res = run_backtest(series, BacktestConfig(boundary_fraction=0.02),
                       ledger=led)
    cut = res.cycles[-1].cycle_end != series.dates[-1]
    assert (res.cutoff_pnl != 0.0) == cut
    done = _flat_marks(led)[res.n_cycles - 1]
    assert res.cutoff_pnl == pytest.approx(res.total_pnl - done,
                                           rel=1e-12, abs=1e-9)
    assert sum(c.pnl for c in res.cycles) + res.cutoff_pnl == \
        pytest.approx(res.total_pnl, rel=1e-9)


@pytest.mark.parametrize("name", ["gbm_up.csv", "gbm_down.csv"])
def test_alpha_one_trades_the_embedded_cycle(name, monkeypatch):
    # the trend leg holds 0 at alpha = 1: each window trades the embedded
    # cycle with the embedded positions, as a simulation does
    calls = []

    def recorded(path, i, anchor, snap, led, legs, psi):
        calls.append((i, anchor, legs, psi))
        return run_cycle(path, i, anchor, snap, led, legs, psi)

    monkeypatch.setattr(backtest, "run_cycle", recorded)
    series = load_csv(DATA / name)
    c = 0.02
    res = run_backtest(series, BacktestConfig(boundary_fraction=c, alpha=1.0))
    assert len(calls) >= res.n_cycles > 100
    assert {cycle.orientation for cycle in res.cycles} == {"positive"}
    for i, anchor, legs, psi in calls:
        assert len(legs) == 3 and legs == leg_table(c, "embedded")
        window = series.closes[i - 756:i]
        q = embedded_q(c, *mle_from_returns(np.diff(np.log(window)), DT))
        # repr prints each float's shortest round-trip form: bit for bit
        assert repr(psi) == repr(embedded_phi(c, anchor, q))


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_each_planned_window_forms_q_once(alpha, monkeypatch):
    # strategies.cycle_plan forms q for the backtest as for simulations:
    # once per window, at the window's estimate
    formed, traded = [], []

    def spy_q(c, mu, sigma):
        formed.append((c, mu, sigma))
        return embedded_q(c, mu, sigma)

    def spy_cycle(path, i, *args):
        traded.append(i)
        return run_cycle(path, i, *args)

    monkeypatch.setattr(strategies, "embedded_q", spy_q)
    monkeypatch.setattr(backtest, "run_cycle", spy_cycle)
    series = load_csv(DATA / "gbm_up.csv")
    c = 0.02
    res = run_backtest(series, BacktestConfig(boundary_fraction=c,
                                              alpha=alpha))
    assert set(res.skipped.values()) == {0} and res.n_cycles > 100
    assert formed == [
        (c, *mle_from_returns(np.diff(np.log(series.closes[i - 756:i])), DT))
        for i in traded]


@pytest.mark.parametrize("name", ["gbm_up.csv", "gbm_down.csv"])
def test_cycle_estimates_equal_mle_on_their_window(name):
    # each window's estimate comes from a slice of the series' log-returns
    series = load_csv(DATA / name)
    config = BacktestConfig(boundary_fraction=0.02)
    res = run_backtest(series, config)
    assert res.n_cycles > 100
    index = {day: k for k, day in enumerate(series.dates)}
    for cycle in res.cycles:
        i = index[cycle.cycle_start]
        window = series.closes[i - config.window_days:i]
        assert (cycle.mu_hat, cycle.sigma_hat) == \
            mle_from_returns(np.diff(np.log(window)), DT)


@pytest.mark.parametrize("name", ["gbm_up.csv", "gbm_down.csv"])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_backtest_totals_are_sequential_sums(name, alpha):
    # the builtin sum compensates its float adds from Python 3.12 on; the
    # totals add left to right, so a compensated sum must not move them
    series = load_csv(DATA / name)
    config = BacktestConfig(boundary_fraction=0.02, alpha=alpha)
    runs = []
    for total in (builtins.sum, math.fsum):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(builtins, "sum", total)
            led = TradeLedger()
            runs.append((run_backtest(series, config, ledger=led),
                         led.events))
    (plain, plain_events), (compensated, compensated_events) = runs
    assert plain.n_cycles > 100
    assert compensated == plain and compensated_events == plain_events
