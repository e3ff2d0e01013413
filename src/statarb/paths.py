"""Simulated price paths, barrier-hit detection, and trade accounting.

A PricePath is an immutable row of prices observed on an equally spaced
grid.  next_hit scans it for the first exit from a barrier corridor
(lo, hi), in blocks of SCAN_SEGMENTS points tested one by one with a scalar
predicate on Python floats (legs are short, so a per-call numpy pass would
cost more than the scan), and TradeLedger accumulates the mark-to-market
P&L of position changes executed along the way.

A PathBlock holds the paths of a block of runs as the rows of one price
matrix of at most CHUNK_BYTES, each row followed by SCAN_SEGMENTS NaN pad
points (scan_matrix).  It generates each row as a prefix of
prefix_points(n_steps) points and the rest only when a scan reaches it,
both with extend_gbm_rows, which continues a path from its generator and
last log price with the same bits; and it answers one query per row with
next_hits, one vectorised window of SCAN_SEGMENTS segments per query,
read as a strided view of the padded row; its caller resumes the queries
a window leaves unanswered.  Row k and its hits equal simulate_gbm's path
for seed k and next_hit's hits on it, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gbm import GbmParams

__all__ = [
    "PricePath",
    "PathBlock",
    "HitEvent",
    "TradeLedger",
    "CHUNK_BYTES",
    "SCAN_SEGMENTS",
    "chunk_rows",
    "prefix_points",
    "scan_matrix",
    "simulate_gbm",
    "extend_gbm_rows",
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
        if not np.isfinite(prices).all():
            raise ValueError("prices must be finite")
        if not (prices > 0).all():
            raise ValueError("prices must be positive")
        prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)


# Memory budget of one block of paths: the price matrix and its
# SCAN_SEGMENTS pad points per row stay within this many bytes.  A
# next_hits window costs the same per query at any width, so a wider block
# means fewer scans and fills per run, and more memory.
# At 1000 steps it holds 92 rows.  perfbench simulate_embedded_snap
# (2-core x86-64 VM, 30 s runs, medians of 4 alternating pairs per step):
# 384 KiB (46 rows) 19599 runs/s at 40.20 MiB peak RSS; 768 KiB (92 rows)
# 21911 runs/s at 40.53 MiB, 4 of 4 pairs won; 1152 KiB (138 rows)
# 24453 runs/s against 23593 at 768 KiB, 2 of 4 pairs won, at 41.27 MiB
# against 40.56 MiB.
CHUNK_BYTES = 768 * 1024


# Grid segments a next_hits query scans past its start point before it
# returns without a hit; the chunk engine resumes it at the next point, so
# one long leg does not hold up the other rows' scans.  next_hit reads its path in
# blocks of this many points, converted to Python floats one block at a
# time, so a short leg converts little.
# At the CLI defaults a leg takes 36 segments on average.  In 30 paired
# runs of 500-run blocks per kind (2-core x86-64 VM, CPU time), 64 beat 48
# in 23-26 pairs (median +1% embedded snap, +7% trend and gfin) and 96 in
# 21 pairs on embedded snap (tied on trend and gfin); 32 was slower still.
SCAN_SEGMENTS = 64


def chunk_rows(n_steps: int) -> int:
    """Paths per block: as many rows of n_steps + 1 points and their
    SCAN_SEGMENTS pad points as CHUNK_BYTES holds, and at least one."""
    return max(1, CHUNK_BYTES // (8 * (n_steps + 1 + SCAN_SEGMENTS)))


def prefix_points(n_steps: int) -> int:
    """Points of a row that PathBlock.fill generates: enough that every
    scan starting at or before index n_steps // 4 reads generated points
    only, and at most the whole row.  A run's last scan starts at a point
    that scales with the steps per year, and reads SCAN_SEGMENTS points
    past it.
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
    included.  Raises ValueError when a price underflows to 0 or
    overflows to inf, which PricePath rejects too.
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
    with np.errstate(over="ignore"):  # reported below, by name
        np.exp(prices, out=prices)
        prices *= params.s0
    if not (prices > 0).all():
        raise ValueError("prices must be positive")
    if not (prices < np.inf).all():
        raise ValueError("prices overflow to inf")
    return prices, log_price


def simulate_gbm(params: GbmParams, seed: int) -> PricePath:
    """One GBM path: extend_gbm_rows from s0 with the generator
    np.random.default_rng(seed), n_steps + 1 points."""
    rng = np.random.default_rng(seed)
    return PricePath(extend_gbm_rows(params, [rng], np.zeros(1),
                                     params.n_steps + 1)[0][0])


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


def scan_matrix(n_rows: int,
                n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """A price matrix of n_rows rows of n_points points, and the next_hits
    windows on it.

    The rows are views into a matrix padded with SCAN_SEGMENTS columns of
    NaN, and windows[r, k] is the view of the SCAN_SEGMENTS + 1 points of
    padded row r from point k on, one per point of the row.  A window
    past the row's end reads pad points, and a NaN leaves no corridor, so
    the pad changes no first exit and nothing writes to it.
    """
    padded = np.empty((n_rows, n_points + SCAN_SEGMENTS))
    padded[:, n_points:] = np.nan
    return (padded[:, :n_points],
            sliding_window_view(padded, SCAN_SEGMENTS + 1, axis=1))


def next_hits(windows: np.ndarray, rows: Sequence[int],
              from_index: Sequence[int], lo: Sequence[float],
              hi: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """next_hit for several rows of a price matrix at once, each scan cut
    after SCAN_SEGMENTS grid segments.

    ``windows`` are the scan windows of a scan_matrix.  Query r tests the
    window windows[rows[r], from_index[r]], the points from_index[r] ..
    from_index[r] + SCAN_SEGMENTS of row rows[r], against the corridor
    (lo[r], hi[r]), each window read as one contiguous copy.  Returns the
    hit indices and levels as arrays, index -1 (level NaN) where next_hit
    on the row cut after that window returns None; the scan then resumes
    at from_index[r] + SCAN_SEGMENTS + 1, the first point not yet tested.
    The predicate is next_hit's, so the hits are the same bit for bit.
    """
    n = windows.shape[1]
    start = np.asarray(from_index, dtype=np.intp)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if ((start < 0) | (start >= n)).any():
        raise ValueError("from_index outside path")
    if not (lo < hi).all():
        raise ValueError("every corridor needs lo < hi")
    window = windows[np.asarray(rows, dtype=np.intp), start]
    below = window <= lo[:, None]
    out = below | (window >= hi[:, None])
    first = out.argmax(axis=1)
    queries = np.arange(start.size)
    got = out[queries, first]
    index = np.where(got, start + first, -1)
    level = np.where(got, np.where(below[queries, first], lo, hi), np.nan)
    return index, level


# ---------------------------------------------------------------------------
# path blocks
# ---------------------------------------------------------------------------


class PathBlock:
    """The GBM paths of a block of runs, as the rows of one price matrix,
    and the barrier scans on them.

    Most runs end early, so fill generates only the first
    prefix_points(n_steps) points of a row.  The row keeps its generator
    and the log price of its last point, and scan generates the rest
    before the first window that reads past the prefix, with the same
    bits.  Prices are checked for underflow and overflow as they are
    generated, so a run that ends before its path would underflow to 0
    does not fail, while simulate_gbm rejects that path.  The rows live
    in a scan_matrix, whose NaN pad no generation step writes.
    """

    def __init__(self, params: GbmParams, n_rows: int) -> None:
        self._params = params
        self._prefix = prefix_points(params.n_steps)
        self.prices, self._windows = scan_matrix(n_rows, params.n_steps + 1)
        self._rngs: dict[int, np.random.Generator] = {}  # by row
        self._log_price = np.zeros(n_rows)  # at the last point of a prefix
        # the last start index whose scan window reads only generated points
        self._covered = np.zeros(n_rows, dtype=np.intp)

    def fill(self, rows: Sequence[int],
             seeds: Sequence[int | np.random.bit_generator.ISeedSequence],
             ) -> None:
        """Start row rows[k] on the path of np.random.default_rng(seeds[k])
        (a seed default_rng accepts, such as a seeding.RunStream)."""
        prefix, n_points = self._prefix, self.prices.shape[1]
        rngs = [np.random.default_rng(seed) for seed in seeds]
        self.prices[rows, :prefix], self._log_price[rows] = extend_gbm_rows(
            self._params, rngs, np.zeros(len(rngs)), prefix)
        self._covered[rows] = (prefix - 1 - SCAN_SEGMENTS
                               if prefix < n_points else n_points)
        self._rngs.update(zip(rows, rngs))

    def scan(self, pending: dict[int, tuple[int, float, float]],
             ) -> tuple[np.ndarray, np.ndarray]:
        """One next_hits window for the query (from_index, lo, hi) of each
        row in ``pending``, after generating the rest of each row whose
        window reads past its prefix.  Returns next_hits' hit indices and
        levels, in the order of ``pending``: index -1 (level NaN) where the
        window ends inside the corridor, and the query, if it is to go on,
        resumes at from_index + SCAN_SEGMENTS + 1."""
        n_points = self.prices.shape[1]
        rows = np.fromiter(pending, dtype=np.intp, count=len(pending))
        starts, lo, hi = zip(*pending.values())
        start_at = np.array(starts, dtype=np.intp)
        late = rows[start_at > self._covered[rows]]
        if late.size:
            # the rest starts at the last prefix point, which it recomputes
            # bit for bit
            self.prices[late, self._prefix - 1:] = extend_gbm_rows(
                self._params, [self._rngs[r] for r in late],
                self._log_price[late], n_points - self._prefix + 1)[0]
            self._covered[late] = n_points
        return next_hits(self._windows, rows, start_at, lo, hi)


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
        self.events.append((time_index, price, position_delta))
        self.cash -= position_delta * price
        self.open_position += position_delta
        return self

    def close_out(self, time_index: int, price: float) -> float:
        """Flatten the position at the given price; returns cumulative P&L.

        The closing execution's delta is -open_position, and the running
        sum it leaves, p + (-p), is exactly 0.0 for a finite position.
        Closing an already-flat ledger is legal, makes no event and returns
        current cash.
        """
        if self.open_position != 0.0:
            self.execute(time_index, price, -self.open_position)
        return self.cash
