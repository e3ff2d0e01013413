"""Simulated price paths, barrier-hit detection, and trade accounting.

A PricePath is an immutable row of prices observed on an equally spaced
grid.  next_hit scans it for the first touch or crossing of a set of barrier
levels, in blocks of SCAN_SEGMENTS segments tested one by one with a scalar
predicate on Python floats (legs are short, so a per-call numpy pass would
cost more than the scan), and TradeLedger accumulates the mark-to-market
P&L of position changes executed along the way.

simulate_gbm_rows and next_hits are the same two operations for a block of
paths held as the rows of one price matrix: row k of the matrix is the path
simulate_gbm would give for seed k, and next_hits answers one next_hit
query per row with a single vectorised scan of at most SCAN_SEGMENTS
segments.  Their results equal the one-path functions bit for bit.
CHUNK_BYTES bounds the memory of both.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .gbm import GbmParams

__all__ = [
    "PricePath",
    "HitEvent",
    "TradeLedger",
    "CHUNK_BYTES",
    "SCAN_SEGMENTS",
    "chunk_rows",
    "simulate_gbm",
    "simulate_gbm_rows",
    "next_hit",
    "next_hits",
]


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PricePath:
    """Prices observed on an equally spaced grid, one per grid point.

    The array is locked read-only so a path can be shared freely.
    """

    prices: np.ndarray

    def __post_init__(self) -> None:
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim != 1:
            raise ValueError("prices must be 1-d")
        if prices.size < 1:
            raise ValueError("path needs at least one point")
        if not np.all(prices > 0):
            raise ValueError("prices must be positive")
        prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)


# Memory budget of one block of paths: the price matrix, and separately
# each float temporary of a next_hits window, stays within this many bytes.
# At 1000 steps it holds 49 rows.  On a 2-core x86-64 VM, 65 rows (512 KiB)
# ran 3% faster but raised the peak RSS of repeated 500-run `simulate`
# calls by 1.05 MiB over the one-path engine, against 0.7 MiB here.
CHUNK_BYTES = 384 * 1024


# Grid segments a next_hits query scans before it returns without a hit; the
# caller resumes it, so one long leg does not hold up the other rows' scans.
# next_hit reads its path in blocks of this many segments, converted to
# Python floats one block at a time, so a short leg converts little.
# At the CLI defaults a leg takes 36 segments on average.  In 30 paired
# runs of 500-run blocks per kind (2-core x86-64 VM, CPU time), 64 beat 48
# in 23-26 pairs (median +1% embedded snap, +7% trend and gfin) and 96 in
# 21 pairs on embedded snap (tied on trend and gfin); 32 was slower still.
SCAN_SEGMENTS = 64


def chunk_rows(n_steps: int) -> int:
    """Paths per block: as many (n_steps + 1)-point rows as CHUNK_BYTES
    holds, and at least one."""
    return max(1, CHUNK_BYTES // (8 * (n_steps + 1)))


def simulate_gbm_rows(
        params: GbmParams,
        seeds: Sequence[int | np.random.bit_generator.ISeedSequence],
        ) -> np.ndarray:
    """Simulate one GBM path per seed as the rows of a price matrix of shape
    (len(seeds), n_steps + 1), by exact log-normal stepping
    S_{k+1} = S_k * exp((mu - sigma^2/2) dt + sigma sqrt(dt) Z_k).

    Row k holds the normals of np.random.default_rng(seeds[k]), so the same
    (params, seed) always produces the identical row whatever block it is
    simulated in.  A seed is an int or a seed object default_rng accepts,
    such as the harness's batched seeding.RunStream.
    Raises ValueError when a price underflows to 0, as PricePath does.
    """
    n, dt = params.n_steps, params.dt
    prices = np.zeros((len(seeds), n + 1))
    for row, seed in zip(prices, seeds):
        np.random.default_rng(seed).standard_normal(out=row[1:])
    # scaling the whole matrix keeps the arithmetic in one contiguous
    # pass; column 0, the log start price, is reset to 0 afterwards
    prices *= params.sigma * np.sqrt(dt)
    prices += (params.mu - 0.5 * params.sigma**2) * dt
    prices[:, 0] = 0.0
    np.cumsum(prices, axis=1, out=prices)
    np.exp(prices, out=prices)
    prices *= params.s0
    if not np.all(prices > 0):
        raise ValueError("prices must be positive")
    return prices


def simulate_gbm(params: GbmParams, seed: int) -> PricePath:
    """The path of simulate_gbm_rows(params, [seed])."""
    return PricePath(simulate_gbm_rows(params, [seed])[0])


# ---------------------------------------------------------------------------
# barrier hits
# ---------------------------------------------------------------------------


class HitEvent(NamedTuple):
    """First touch/crossing of a barrier: grid index and the level hit."""

    index: int
    level: float


def _segment_level(p0: float, p1: float,
                   levels: list[float]) -> float | None:
    """The crossed/touched level nearest the segment start, or None.
    `levels` is sorted, so the lowest level wins a tie."""
    best = best_gap = None
    for level in levels:
        d0 = p0 - level
        d1 = p1 - level
        if d0 * d1 < 0 or d1 == 0:
            gap = abs(d0)
            if best is None or gap < best_gap:
                best, best_gap = level, gap
    return best


def next_hit(path: PricePath, from_index: int, levels: Iterable[float],
             ref_price: float | None = None) -> HitEvent | None:
    """First index > from_index where the path touches or crosses a level.

    A crossing is a sign change of price - level between consecutive grid
    points; touching counts at the right endpoint of a segment, so a path
    that starts on a level and moves away has not hit it.  When several
    levels are crossed inside one segment the one nearest the segment start
    is reported (the one reached first by any monotone bridge).

    `ref_price` prepends a virtual segment ref_price -> prices[from_index],
    allowing a hit at from_index itself: it carries barrier state across
    re-anchoring, when the previous execution level and the current grid
    price straddle a new barrier.  Returns None if the horizon is reached
    without a hit.

    The path is read in blocks of SCAN_SEGMENTS segments as Python floats,
    and each segment is tested in turn with the scalar predicate
    (p0 - L) * (p1 - L) < 0 or p1 - L == 0.  Python float arithmetic is
    IEEE float64, as numpy's element-wise operations are, so the hits equal
    those of next_hits bit for bit.
    """
    prices = path.prices
    n = prices.size
    if not (0 <= from_index < n):
        raise ValueError(f"from_index {from_index} outside path")
    lv = sorted(set(float(v) for v in levels))
    if not lv:
        raise ValueError("levels must be nonempty")

    if ref_price is not None:
        level = _segment_level(float(ref_price), float(prices[from_index]),
                               lv)
        if level is not None:
            return HitEvent(from_index, level)

    k = from_index
    while k < n - 1:
        stop = min(n - 1, k + SCAN_SEGMENTS)
        block = prices[k:stop + 1].tolist()
        p0 = block[0]
        for j in range(1, len(block)):
            p1 = block[j]
            level = _segment_level(p0, p1, lv)
            if level is not None:
                return HitEvent(k + j, level)
            p0 = p1
        k = stop
    return None


def _nearest_crossed(p0: np.ndarray, p1: np.ndarray,
                     levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_segment_level per row: whether segment p0[r] -> p1[r] touches or
    crosses a level of the sorted row levels[r], and the crossed level
    nearest p0[r] (the lowest on a tie, as in the sorted one-path scan).
    NaN levels never count."""
    d0 = p0[:, None] - levels
    d1 = p1[:, None] - levels
    crossed = (d0 * d1 < 0) | (d1 == 0)
    nearest = np.where(crossed, np.abs(d0), np.inf).argmin(axis=1)
    return crossed.any(axis=1), levels[np.arange(levels.shape[0]), nearest]


def next_hits(prices: np.ndarray, rows: Sequence[int],
              from_index: Sequence[int],
              levels: Sequence[Sequence[float]],
              ref_price: Sequence[float | None],
              ) -> tuple[np.ndarray, np.ndarray]:
    """next_hit for several rows of a price matrix at once, each scan cut
    after SCAN_SEGMENTS grid segments.

    Query r scans row rows[r] of `prices` from from_index[r] for the levels
    levels[r], after the virtual segment ref_price[r] -> start price unless
    that reference is None.  Returns the hit indices and levels as arrays,
    index -1 (level NaN) where next_hit on the row cut at from_index[r] +
    SCAN_SEGMENTS returns None; the scan then resumes exactly at that
    index, with no reference price.  The crossing predicate and the
    nearest-level rule are next_hit's, so the hits are the same bit for
    bit.  The rows are scanned together in windows short enough that each
    float temporary stays within CHUNK_BYTES.
    """
    n = prices.shape[1]
    rows = np.asarray(rows, dtype=np.intp)
    start = np.asarray(from_index, dtype=np.intp)
    if np.any((start < 0) | (start >= n)):
        raise ValueError("from_index outside path")
    if not levels or min(map(len, levels)) == 0:
        raise ValueError("levels must be nonempty")
    width = max(map(len, levels))
    # ragged level sets are padded with NaN, which no segment crosses
    lv = np.sort(np.array([(*row, *(np.nan,) * (width - len(row)))
                           for row in levels], dtype=float), axis=1)
    last = np.minimum(start + SCAN_SEGMENTS, n - 1)
    ref = np.asarray(ref_price, dtype=float)  # None becomes NaN
    hit, at = _nearest_crossed(ref, prices[rows, start], lv)
    hit &= ~np.isnan(ref)
    index = np.where(hit, start, -1)
    level = np.where(hit, at, np.nan)
    todo = np.flatnonzero(~hit & (start < last))

    # a window is scanned level-major, (levels, rows, segments), so that
    # the innermost axis of every operation is a long run of segments
    lv_major = np.ascontiguousarray(lv.T)
    k = start[todo]
    while todo.size:
        segments = max(1, min(SCAN_SEGMENTS,
                              CHUNK_BYTES // (8 * todo.size * width) - 1))
        cols = np.minimum(k[:, None] + np.arange(segments + 1),
                          last[todo, None])
        window = prices[rows[todo, None], cols]
        d = window - lv_major[:, todo, None]
        seg = ((d[:, :, :-1] * d[:, :, 1:] < 0) | (d[:, :, 1:] == 0)).any(
            axis=0)
        first = seg.argmax(axis=1)
        got = seg[np.arange(todo.size), first]
        if np.any(got):
            j, p = first[got], window[got]
            hit, at = _nearest_crossed(p[np.arange(j.size), j],
                                       p[np.arange(j.size), j + 1],
                                       lv[todo[got]])
            assert np.all(hit)
            index[todo[got]] = k[got] + j + 1
            level[todo[got]] = at
        k = k + segments
        more = ~got & (k < last[todo])
        todo, k = todo[more], k[more]
    return index, level


# ---------------------------------------------------------------------------
# trade ledger
# ---------------------------------------------------------------------------


@dataclass
class TradeLedger:
    """Mark-to-market P&L accounting for a sequence of position changes.

    cash holds -sum(delta * price) over all events; once the position is
    flat, cash is the realized P&L of the round trip.
    """

    events: list[tuple[int, float, float]] = field(default_factory=list)
    cash: float = 0.0
    open_position: float = 0.0

    def execute(self, time_index: int, price: float,
                position_delta: float) -> "TradeLedger":
        """Change the position by position_delta at the given price."""
        if not (price > 0):
            raise ValueError("price must be positive")
        self.events.append((int(time_index), float(price),
                            float(position_delta)))
        self.cash -= position_delta * price
        self.open_position += position_delta
        return self

    def close_out(self, time_index: int, price: float) -> float:
        """Flatten the position at the given price; returns cumulative P&L.

        Closing an already-flat ledger is legal and returns current cash.
        """
        if self.open_position != 0.0:
            self.execute(time_index, price, -self.open_position)
            self.open_position = 0.0
        return self.cash
