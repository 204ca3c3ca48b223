"""Dissimilarity index of two count distributions and its privatized law.

The index is half the L1 distance between the tract-level shares of two
groups.  On privatized tables the noisy totals enter the denominators, so
the released index fluctuates, can leave [0, 1], and is undefined whenever
a noisy total is nonpositive; the study operation quantifies all of that
under repeated mechanism draws without any clipping or post-processing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedIndexError
from .mechanisms import PrivacyBudget, check_dg_values, double_geometric_noise

__all__ = [
    "CountyTable",
    "DissimilarityStudy",
    "dissimilarity",
    "privatized_dissimilarity_study",
    "county_table_from_csv",
]

_QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)
# Noise cells the privatized study holds per block of replicates.
_BLOCK_CELLS = 65_536
# Most blocks of the privatized study in flight at once, one per thread.
_THREADS = 4


@dataclass(frozen=True)
class CountyTable:
    """Per-tract counts of two groups plus county totals.

    On confidential input the totals equal the column sums
    (:meth:`from_counts` enforces this); privatized tables may carry
    independently noised totals that do not.  Every count and total must
    be finite; a ``ValueError`` names each one that is not.
    """

    w: np.ndarray
    b: np.ndarray
    w_cty: float
    b_cty: float

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if w.shape != b.shape or w.ndim != 1 or w.size == 0:
            raise ValueError("w and b must be 1-d arrays of equal, nonzero length")
        bad = [f"{name}[{i}]={float(col[i])!r}" for name, col in (("w", w), ("b", b))
               for i in np.flatnonzero(~np.isfinite(col))]
        bad += [f"{name}={float(total)!r}" for name, total in
                (("w_cty", self.w_cty), ("b_cty", self.b_cty)) if not math.isfinite(total)]
        if bad:
            raise ValueError(f"counts must be finite, got {', '.join(bad)}")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_counts(cls, w, b) -> "CountyTable":
        """Build a confidential table; totals are the column sums.

        Raises ``ValueError`` naming each count that is not finite, and on
        any negative count.
        """
        w = np.asarray(w, dtype=float)
        b = np.asarray(b, dtype=float)
        table = cls(w=w, b=b, w_cty=float(w.sum()), b_cty=float(b.sum()))
        if np.any(table.w < 0) or np.any(table.b < 0):
            raise ValueError("confidential counts must be nonnegative")
        return table


def dissimilarity(table: CountyTable) -> float:
    """Half the L1 distance between the two tract share distributions.

    Raises
    ------
    UndefinedIndexError
        If either county total is nonpositive.
    """
    if table.w_cty <= 0 or table.b_cty <= 0:
        raise UndefinedIndexError(
            f"totals must be positive, got ({table.w_cty}, {table.b_cty})"
        )
    return 0.5 * float(np.abs(table.w / table.w_cty - table.b / table.b_cty).sum())


@dataclass(frozen=True)
class DissimilarityStudy:
    """Distribution summary of the privatized index over mechanism draws."""

    mean: float
    sd: float
    quantiles: dict
    undefined_fraction: float
    out_of_range_fraction: float
    replicates: int
    epsilon: float


def privatized_dissimilarity_study(
    table: CountyTable,
    eps: PrivacyBudget,
    replicates: int,
    rng: np.random.Generator,
) -> DissimilarityStudy:
    """Recompute the index under repeated independent privatizations.

    Every cell and both totals receive independent double geometric noise
    at budget ``eps`` per replicate.  Replicates whose noisy totals are
    nonpositive leave the index undefined and are excluded from the
    moments but counted; defined values outside [0, 1] stay in the moments
    unclipped and are counted separately.

    The replicates run in blocks of ``max(1, 65536 // m)`` rows for a
    table of m tracts, so a block's noise is about 65 536 cells (m when one
    row is larger).  Each block draws, in order, its w-cell, b-cell,
    w-total and b-total noise from a stream of its own: block 0 from
    ``rng``, block j >= 1 from child j - 1 of ``rng.spawn``, spawned in
    order on the calling thread.  The blocks run on
    ``min(os.cpu_count(), blocks, 4)`` threads, at most one block per
    thread in flight, and each writes its own rows, so the output is the
    same for any thread count.  A block draws its w and b cell noise into
    a pair of float64 buffers of one block's cells (1 MiB a pair at 65 536
    cells, whatever the replicate count), one pair per thread, allocated
    on the calling thread before any block runs; no block allocates an
    array of its cells.  A study of at most 65 536 cells is one
    block and reads ``rng`` alone; a larger one needs an ``rng`` that can
    spawn (seeded from a ``SeedSequence``, as :func:`~transparent_dp.rng.stream`
    and ``numpy.random.default_rng`` make it).

    Parameters
    ----------
    table : CountyTable
        Confidential table (or any table; noise is added to what is given).
    eps : PrivacyBudget
        Per-count budget of each noisy release.
    replicates : int
        Number of independent privatizations, at least 2.
    rng : numpy.random.Generator
        Source stream.

    Raises
    ------
    ValueError
        If ``replicates`` is below 2, or a cell or total is not an integer
        at most :data:`~transparent_dp.mechanisms.DG_MAX_VALUE` in
        magnitude, as :func:`~transparent_dp.mechanisms.privatize_vector`
        requires of double geometric values; float noise added to a larger
        count would round away.
    """
    if replicates < 2:
        raise ValueError("replicates must be at least 2")
    check_dg_values(np.concatenate([table.w, table.b, [table.w_cty, table.b_cty]]))
    m = table.w.size
    rows = max(1, _BLOCK_CELLS // m)
    d = np.empty(replicates)
    defined = np.empty(replicates, dtype=bool)

    def block(start: int, g: np.random.Generator, cells: tuple) -> None:
        k = min(rows, replicates - start)
        # Float noise plus a count is the sum the count plus int64 noise
        # gave, to the bit.
        w_cells, b_cells = cells
        shares = double_geometric_noise(g, eps, k * m, out=w_cells[:k * m]).reshape(k, m)
        shares += table.w
        b_noisy = double_geometric_noise(g, eps, k * m, out=b_cells[:k * m]).reshape(k, m)
        b_noisy += table.b
        w_tot = table.w_cty + double_geometric_noise(g, eps, k)
        b_tot = table.b_cty + double_geometric_noise(g, eps, k)

        # Every row, in place: rows with a nonpositive total divide by zero
        # or a negative, and np.where discards them.
        ok = (w_tot > 0) & (b_tot > 0)
        defined[start:start + k] = ok
        with np.errstate(divide="ignore", invalid="ignore"):
            shares /= w_tot[:, None]
            b_noisy /= b_tot[:, None]
            shares -= b_noisy
        np.abs(shares, out=shares)
        d[start:start + k] = np.where(ok, 0.5 * shares.sum(axis=1), np.nan)

    # numpy fills and divides the noise without holding the GIL, so the
    # blocks overlap on threads.  Imported here: at module level it would
    # add about 6 ms to every import of the package.
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    starts = range(0, replicates, rows)
    workers = min(os.cpu_count() or 1, len(starts), _THREADS)
    # Each block in flight borrows one pair of cell buffers, allocated
    # here on the calling thread, and gives it back once its future is done.
    size = min(rows, replicates) * m
    free = [(np.empty(size), np.empty(size)) for _ in range(workers)]
    with ThreadPoolExecutor(workers) as pool:
        running = {}
        for j, start in enumerate(starts):
            if not free:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    future.result()
                    free.append(running.pop(future))
            cells = free.pop()
            running[pool.submit(block, start, rng.spawn(1)[0] if j else rng, cells)] = cells
        for future in running:
            future.result()

    vals = d[defined]
    undefined_fraction = 1.0 - defined.mean()
    out_of_range = ((vals < 0) | (vals > 1)).mean() if vals.size else 0.0
    if vals.size:
        mean = float(vals.mean())
        sd = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        quantiles = {
            q: float(np.quantile(vals, q)) for q in _QUANTILE_LEVELS
        }
    else:
        mean, sd = math.nan, math.nan
        quantiles = {q: math.nan for q in _QUANTILE_LEVELS}

    return DissimilarityStudy(
        mean=mean,
        sd=sd,
        quantiles=quantiles,
        undefined_fraction=float(undefined_fraction),
        out_of_range_fraction=float(out_of_range),
        replicates=replicates,
        epsilon=eps.epsilon,
    )


def county_table_from_csv(text: str) -> CountyTable:
    """Parse a confidential table from CSV with header ``tract,w,b``."""
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0].strip().lower() != "tract,w,b":
        raise ValueError("expected CSV header 'tract,w,b'")
    w, b = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValueError(f"malformed row {ln!r}")
        w.append(float(parts[1]))
        b.append(float(parts[2]))
    return CountyTable.from_counts(w, b)
