"""Simulated price paths, barrier-hit detection, and trade accounting.

A PricePath is an immutable row of prices observed on an equally spaced
grid.  next_hit scans it for the first exit from a barrier corridor
(lo, hi), in blocks of SCAN_SEGMENTS points tested one by one with a scalar
predicate on Python floats (legs are short, so a per-call numpy pass would
cost more than the scan), and TradeLedger accumulates the mark-to-market
P&L of position changes executed along the way.

simulate_gbm_rows and next_hits are the same two operations for a block of
paths held as the rows of one price matrix: row k of the matrix is the path
simulate_gbm would give for seed k, and next_hits answers one next_hit
query per row with a single vectorised scan of at most SCAN_SEGMENTS
segments.  Their results equal the one-path functions bit for bit.
CHUNK_BYTES bounds the memory of both.  extend_gbm_rows is the one
generator behind them; it continues paths from their generators and last
log prices, so a block can be generated a part of its columns at a time
(prefix_points) with the same bits.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .gbm import GbmParams

__all__ = [
    "PricePath",
    "HitEvent",
    "TradeLedger",
    "CHUNK_BYTES",
    "SCAN_SEGMENTS",
    "chunk_rows",
    "prefix_points",
    "simulate_gbm",
    "extend_gbm_rows",
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

    The array is locked read-only so a path can be shared freely; a
    writeable float array of the caller's is copied first, not locked.
    """

    prices: np.ndarray

    def __post_init__(self) -> None:
        prices = np.asarray(self.prices, dtype=float)
        if prices is self.prices and prices.flags.writeable:
            prices = prices.copy()
        if prices.ndim != 1:
            raise ValueError("prices must be 1-d")
        if prices.size < 1:
            raise ValueError("path needs at least one point")
        if not np.all(prices > 0):
            raise ValueError("prices must be positive")
        prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)


# Memory budget of one block of paths: the price matrix stays within this
# many bytes, and a next_hits window of one query per row, at most
# SCAN_SEGMENTS + 1 points each, within the matrix.
# At 1000 steps it holds 49 rows.  On a 2-core x86-64 VM, 65 rows (512 KiB)
# ran 3% faster but raised the peak RSS of repeated 500-run `simulate`
# calls by 1.05 MiB over the one-path engine, against 0.7 MiB here.
CHUNK_BYTES = 384 * 1024


# Grid segments a next_hits query scans past its start point before it
# returns without a hit; the caller resumes it at the next point, so one long
# leg does not hold up the other rows' scans.  next_hit reads its path in
# blocks of this many points, converted to Python floats one block at a
# time, so a short leg converts little.
# At the CLI defaults a leg takes 36 segments on average.  In 30 paired
# runs of 500-run blocks per kind (2-core x86-64 VM, CPU time), 64 beat 48
# in 23-26 pairs (median +1% embedded snap, +7% trend and gfin) and 96 in
# 21 pairs on embedded snap (tied on trend and gfin); 32 was slower still.
SCAN_SEGMENTS = 64


def chunk_rows(n_steps: int) -> int:
    """Paths per block: as many (n_steps + 1)-point rows as CHUNK_BYTES
    holds, and at least one."""
    return max(1, CHUNK_BYTES // (8 * (n_steps + 1)))


def prefix_points(n_steps: int) -> int:
    """Points of a row that run_seeded generates when it fills the row:
    enough that every scan starting at or before index n_steps // 4 reads
    generated points only, and at most the whole row.  A run's last scan
    starts at a point that scales with the steps per year, and reads
    SCAN_SEGMENTS points past it.
    At 1000 steps (2-core x86-64 VM, CPU time, 2000 runs, interleaved
    rounds against whole rows) n_steps // 4 gave a median 1.18x on embedded
    snap, n_steps // 8 1.19x and n_steps // 2 1.06x; trend observed, which
    completes 39% of its rows at n_steps // 4, was 1.01x, 0.99x and
    1.01x.  A prefix of SCAN_SEGMENTS + 1 points alone completed every row
    at 250 steps."""
    return min(n_steps + 1, SCAN_SEGMENTS + 1 + n_steps // 4)


def extend_gbm_rows(params: GbmParams,
                    rngs: Sequence[np.random.Generator],
                    log_price: np.ndarray,
                    n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Continue one GBM path per generator, as the rows of a price matrix
    of shape (len(rngs), n_points), by exact log-normal stepping
    S_{k+1} = S_k * exp((mu - sigma^2/2) dt + sigma sqrt(dt) Z_k).

    Row k starts at the point whose log price log(S / s0) is
    log_price[k] and takes n_points - 1 steps with the next normals of
    rngs[k].  Returns the matrix and the log price of each row's last
    point, from which a later call continues the row: the generators
    draw the same normals in the same order, and the cumsum runs on from
    the same log price, so a path generated in parts equals the path
    generated at once bit for bit, the point where the parts meet
    included.  Raises ValueError when a price underflows to 0, as
    PricePath does.
    """
    dt = params.dt
    prices = np.zeros((len(rngs), n_points))
    for row, rng in zip(prices, rngs):
        rng.standard_normal(out=row[1:])
    # scaling the whole matrix keeps the arithmetic in one contiguous
    # pass; column 0, the start's log price, is set afterwards
    prices *= params.sigma * np.sqrt(dt)
    prices += (params.mu - 0.5 * params.sigma**2) * dt
    prices[:, 0] = log_price
    np.cumsum(prices, axis=1, out=prices)
    log_price = prices[:, -1].copy()
    np.exp(prices, out=prices)
    prices *= params.s0
    if not np.all(prices > 0):
        raise ValueError("prices must be positive")
    return prices, log_price


def simulate_gbm_rows(
        params: GbmParams,
        seeds: Sequence[int | np.random.bit_generator.ISeedSequence],
        ) -> np.ndarray:
    """Simulate one GBM path per seed as the rows of a price matrix of shape
    (len(seeds), n_steps + 1): extend_gbm_rows from s0 with the generator
    np.random.default_rng(seeds[k]) for row k.

    The same (params, seed) always produces the identical row whatever
    block it is simulated in.  A seed is an int or a seed object
    default_rng accepts, such as the harness's batched seeding.RunStream.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    return extend_gbm_rows(params, rngs, np.zeros(len(rngs)),
                           params.n_steps + 1)[0]


def simulate_gbm(params: GbmParams, seed: int) -> PricePath:
    """The path of simulate_gbm_rows(params, [seed])."""
    return PricePath(simulate_gbm_rows(params, [seed])[0])


# ---------------------------------------------------------------------------
# barrier hits
# ---------------------------------------------------------------------------


class HitEvent(NamedTuple):
    """First exit from a barrier corridor: grid index and the level hit."""

    index: int
    level: float


def next_hit(path: PricePath, from_index: int, lo: float,
             hi: float) -> HitEvent | None:
    """First index >= from_index where the path leaves the corridor (lo, hi).

    The path leaves at the first price p with p <= lo or p >= hi, and the
    hit reports the level on that side.  The start point counts: a query
    whose start price is already outside hits at from_index.  Returns None
    if the path ends inside.

    The path is read in blocks of SCAN_SEGMENTS points as Python floats,
    each point tested in turn with the scalar predicate; the comparisons
    are exact, so the hits equal those of next_hits bit for bit.
    """
    prices = path.prices
    n = prices.size
    if not (0 <= from_index < n):
        raise ValueError(f"from_index {from_index} outside path")
    if not lo < hi:
        raise ValueError(f"corridor ({lo!r}, {hi!r}) is empty")
    for k in range(from_index, n, SCAN_SEGMENTS):
        for j, p in enumerate(prices[k:k + SCAN_SEGMENTS].tolist(), k):
            if p <= lo:
                return HitEvent(j, lo)
            if p >= hi:
                return HitEvent(j, hi)
    return None


def next_hits(prices: np.ndarray, rows: Sequence[int],
              from_index: Sequence[int], lo: Sequence[float],
              hi: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """next_hit for several rows of a price matrix at once, each scan cut
    after SCAN_SEGMENTS grid segments.

    Query r tests the points from_index[r] .. from_index[r] + SCAN_SEGMENTS
    of row rows[r] of `prices` against the corridor (lo[r], hi[r]).
    Returns the hit indices and levels as arrays, index -1 (level NaN)
    where next_hit on the row cut after that window returns None; the scan
    then resumes at from_index[r] + SCAN_SEGMENTS + 1, the first point not
    yet tested.  The predicate is next_hit's, so the hits are the same bit
    for bit.
    """
    n = prices.shape[1]
    start = np.asarray(from_index, dtype=np.intp)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any((start < 0) | (start >= n)):
        raise ValueError("from_index outside path")
    if not np.all(lo < hi):
        raise ValueError("every corridor needs lo < hi")
    # columns past the path end repeat its last point, which changes no
    # first exit
    cols = np.minimum(start[:, None] + np.arange(min(SCAN_SEGMENTS + 1, n)),
                      n - 1)
    window = prices[np.asarray(rows, dtype=np.intp)[:, None], cols]
    below = window <= lo[:, None]
    out = below | (window >= hi[:, None])
    first = out.argmax(axis=1)
    queries = np.arange(start.size)
    got = out[queries, first]
    index = np.where(got, start + first, -1)
    level = np.where(got, np.where(below[queries, first], lo, hi), np.nan)
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
