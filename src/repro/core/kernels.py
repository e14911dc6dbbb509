"""Pruned + batched distance kernels beneath the DTW consumers.

Every differencing decision in the repro — Figure 7 classification,
Figure 8/9 anomaly scans, signature-bank matching, the online pipeline's
per-window identification — bottoms out in the penalty-DTW dynamic
program of :mod:`repro.core.dtw`.  This module is the exact-pruning layer
between those consumers and the O(m*n) DP:

* **admissible lower bounds** (:func:`lb_penalty_dtw`,
  :func:`lb_one_to_many`): the first/last-element bound plus the
  length-gap bound ``|m - n| * p``, provably <= the true distance, so a
  nearest-neighbor decision can discard most candidates without running
  a DP at all;
* **early-abandoning DP** (:func:`dtw_distance_pruned`): the row
  recurrence of :func:`repro.core.dtw.dtw_distance` with an exact abandon
  check — every warp path crosses every row, and DP values along a path
  never decrease, so once a row's minimum exceeds a best-so-far cutoff
  the final distance provably does too;
* **the pair body** (:func:`_dtw_block`): the same row recurrence run
  vectorized over a block of ``(x, y)`` pairs, so ``B`` DPs cost one
  sweep of 2-D numpy rows instead of ``B`` interpreter-dispatched loops;
  :func:`plan_pair_blocks` groups pairs by the length class of ``y`` so
  no block pads far past its members, and :func:`dtw_pairs` (pair
  lists), :func:`dtw_one_to_many` (one query against a bank) and
  :func:`dtw_distance_pruned` (one pair) all run on it;
* **pruned nearest neighbor** (:func:`argmin_distance`): candidates
  ordered by lower bound, batched DPs with the best-so-far distance
  threaded through as the abandon cutoff;
* the shared **pad-and-mask bank machinery** also backs the cheap online
  L1 prefix matching (:func:`l1_prefix_distances`,
  :class:`PrefixL1Sweeper`) used by
  :class:`~repro.core.signatures.SignatureBank` and the streaming
  pipeline.

Exact-pruning semantics
-----------------------

All pruned/batched paths return results *bit-identical* to the serial
reference DP wherever they return a distance at all: the pair body
performs exactly the same IEEE-754 operations per pair as the serial
one (``cumsum`` and ``minimum.accumulate`` are sequential along the last
axis), and abandonment uses strict ``>`` against the cutoff, so a
distance equal to the cutoff is always computed exactly.

One floating-point subtlety: the unrolled prefix-min recurrence shared
with :mod:`repro.core.dtw` computes each cell as ``(entry - prefix) +
prefix'``, and that cancellation can *round the computed value below the
mathematical one* — so the textbook invariant "row minimum <= final
distance" holds exactly in real arithmetic but only up to rounding
drift for the computed values.  Every pruning decision therefore
compares against ``cutoff + margin`` where :func:`_drift_margin` is a
conservative upper bound on that drift (a few hundred ulps of the
largest DP intermediate — astronomically below any meaningful distance,
so pruning power is unaffected).  An abandoned candidate reports ``inf``
— by construction its *computed* distance exceeds the cutoff — so
nearest-neighbor argmins (including first-minimum tie-breaking) and the
returned best distances are identical to a naive full scan.

:class:`~repro.core.distengine.DistanceEngine` always routes
:class:`PenaltyDtw` matrices through :func:`dtw_pairs`; the serial
:func:`repro.core.dtw.dtw_distance` stays the oracle the tests compare
the body against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dtw import dtw_distance

__all__ = [
    "PaddedBank",
    "PenaltyDtw",
    "PrefixL1Sweeper",
    "argmin_distance",
    "dtw_distance_pruned",
    "dtw_one_to_many",
    "dtw_pairs",
    "l1_prefix_distances",
    "lb_one_to_many",
    "lb_penalty_dtw",
    "plan_pair_blocks",
]

class PaddedBank:
    """A bank of variable-length sequences as one zero-padded 2-D matrix.

    ``matrix[b, :lengths[b]]`` holds sequence ``b``; padding columns are
    zero and every consumer masks them (or, for the DTW DP, reads its
    answer at column ``lengths[b] - 1``, which padding cannot reach —
    column ``j`` of the recurrence depends only on columns ``<= j``).
    """

    __slots__ = ("matrix", "lengths", "columns")

    def __init__(self, sequences: Sequence):
        arrays = [np.asarray(s, dtype=float) for s in sequences]
        if not arrays:
            raise ValueError("empty bank")
        if any(a.ndim != 1 for a in arrays):
            raise ValueError("bank sequences must be one-dimensional")
        if any(a.size == 0 for a in arrays):
            raise ValueError("empty sequence in bank")
        self.lengths = np.array([a.size for a in arrays], dtype=np.intp)
        self.matrix = np.zeros((len(arrays), int(self.lengths.max())))
        for row, values in zip(self.matrix, arrays):
            row[: values.size] = values
        self.columns = np.arange(self.matrix.shape[1])

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def subset(self, indices) -> "PaddedBank":
        """A new bank holding ``self``'s rows at ``indices`` (copies)."""
        bank = object.__new__(PaddedBank)
        bank.matrix = self.matrix[indices]
        bank.lengths = self.lengths[indices]
        bank.columns = self.columns
        return bank


def _as_bank(bank_or_sequences) -> PaddedBank:
    if isinstance(bank_or_sequences, PaddedBank):
        return bank_or_sequences
    return PaddedBank(bank_or_sequences)


# -- admissible lower bounds ------------------------------------------------


def lb_penalty_dtw(x, y, asynchrony_penalty: float = 0.0) -> float:
    """Admissible lower bound on :func:`repro.core.dtw.dtw_distance`.

    Two provably-disjoint contributions to the true distance are bounded
    separately and summed:

    * **first/last element**: every warp path starts at cell ``(0, 0)``
      and ends at ``(m-1, n-1)``, paying the metric difference at each
      visited cell, so the path cost is at least ``|x[0] - y[0]|`` plus —
      when the path has more than one cell — ``|x[-1] - y[-1]|``;
    * **length gap**: with ``a`` asynchronous steps advancing only ``x``
      and ``b`` advancing only ``y``, ``a - b = m - n`` along any path,
      so at least ``|m - n|`` asynchronous steps are unavoidable and the
      penalty charge is at least ``|m - n| * p``.
    """
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("empty sequence")
    bound = abs(float(x[0]) - float(y[0]))
    if x.size > 1 or y.size > 1:
        bound += abs(float(x[-1]) - float(y[-1]))
    return bound + abs(x.size - y.size) * float(asynchrony_penalty)


def lb_one_to_many(query, bank, asynchrony_penalty: float = 0.0) -> np.ndarray:
    """:func:`lb_penalty_dtw` of ``query`` against every bank row, vectorized."""
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    bank = _as_bank(bank)
    x = np.asarray(query, dtype=float)
    if x.size == 0:
        raise ValueError("empty sequence")
    lengths = bank.lengths
    first = np.abs(x[0] - bank.matrix[:, 0])
    last = np.abs(x[-1] - bank.matrix[np.arange(len(bank)), lengths - 1])
    # The last-element term only applies when the warp path has > 1 cell.
    multi = (lengths > 1) | (x.size > 1)
    return (
        first
        + np.where(multi, last, 0.0)
        + np.abs(x.size - lengths) * float(asynchrony_penalty)
    )


# -- early-abandoning serial DP ---------------------------------------------


def _drift_margin(m: int, n: int, max_abs: float, p: float) -> float:
    """Upper bound on downward rounding drift of the unrolled DP.

    The prefix-min unrolling computes cells as ``(entry - prefix) +
    prefix'``; each such cancellation can lose up to ~eps times the
    magnitude of the intermediates, and the losses accumulate additively
    (the recurrence applies only ``+``/``-``/``min``, never scaling).
    Every intermediate is bounded by the worst full path cost
    ``(m + n) * (max pair difference + p)``, and at most ``m`` row
    transitions each contribute a handful of roundings, so ``32 * eps *
    m * scale`` is a generous bound.  Pruning decisions compare against
    ``cutoff + margin`` so a candidate whose *computed* distance is
    ``<= cutoff`` is never abandoned.
    """
    scale = (m + n) * (2.0 * max_abs + p)
    return 32.0 * np.finfo(float).eps * m * scale


def dtw_distance_pruned(
    x, y, asynchrony_penalty: float = 0.0, cutoff: float = np.inf
) -> float:
    """Penalty-DTW with exact early abandoning against ``cutoff``.

    Identical arithmetic to :func:`repro.core.dtw.dtw_distance`; after
    each DP row, if the row minimum exceeds ``cutoff`` (plus the
    :func:`_drift_margin` rounding slack) the computation stops and
    returns ``inf``.  Exactness: every warp path visits every row, and
    DP values along a path are non-decreasing (costs and penalties are
    non-negative), so ``min(row) <= final distance`` up to rounding
    drift — an abandoned pair's computed distance is guaranteed to
    exceed ``cutoff``.  Whenever the computed distance is ``<= cutoff``
    the returned value is bit-identical to ``dtw_distance``.
    """
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("empty sequence")
    p = float(asynchrony_penalty)
    threshold = cutoff
    if np.isfinite(cutoff):
        max_abs = max(float(np.abs(x).max()), float(np.abs(y).max()))
        threshold = cutoff + _drift_margin(x.size, y.size, max_abs, p)
    distances = _dtw_block(
        x, np.zeros(1, dtype=np.intp), np.array([x.size]),
        y[None, :], np.array([y.size]), p, cutoff, threshold,
    )
    return float(distances[0])


# -- the penalty-DTW body over a block of pairs ------------------------------

#: Most cells (pairs x width) one block's DP row may hold.  A block keeps
#: six arrays of that shape (its padded y rows and five DP buffers), so
#: this bounds its memory to about 0.8 MB whatever the pair list; a block
#: exceeds it only when it holds a single pair.  (2**16 ran no faster
#: and left more of the buffers resident; see docs/perf.md.)
BLOCK_CELLS = 1 << 14

#: Cells of DP work that cost about as much as the fixed interpreter
#: overhead of one DP row (about 20 us against about 20 ns per cell on
#: x86-64 with numpy 2).  The planner merges a length class into the next
#: wider one when the padding this adds is fewer cells than the rows it
#: saves are worth.  It shapes the plan only; distances never depend on it.
ROW_CELLS = 1024


def _dtw_block(
    x, x_at, m, y, n, p: float, cutoff: float = np.inf, threshold: float = np.inf
) -> np.ndarray:
    """Penalty-DTW of a block of ``(x, y)`` pairs in one vectorized sweep.

    Pair ``b``'s x sequence is ``x[x_at[b] : x_at[b] + m[b]]``, with the
    lengths ``m`` non-increasing; its y sequence is the zero-padded row
    ``y[b]`` of length ``n[b]``.  DP row ``i`` updates only the pairs
    whose x is longer than ``i`` — a prefix of the block — so differing x
    lengths cost no padding.  Each answer is read at column ``n[b] - 1``
    of the pair's last row, which y padding cannot reach: column ``j`` of
    the recurrence depends only on columns ``<= j``.

    Per pair the body performs exactly the IEEE-754 operations of
    :func:`repro.core.dtw.dtw_distance` (``cumsum`` and
    ``minimum.accumulate`` run sequentially along the last axis), so every
    distance is bit-identical to it.  With a finite ``cutoff``, a pair is
    abandoned (reported ``inf``) once its row minimum exceeds
    ``threshold``, or at the end if its distance exceeds ``cutoff``; once
    no more than half the live pairs survive, the sweep compacts to them.
    The minimum runs over padding columns too, which only lowers it, so
    abandoning stays conservative.
    """
    live, width = y.shape
    check = cutoff < np.inf
    out = np.full(live, np.inf)
    at = np.arange(live)  # block position of each live pair
    jp = np.arange(1, width) * p

    # Row 0: only asynchronous steps along y.
    cost = np.abs(x[x_at][:, None] - y)
    row = np.empty_like(cost)
    row[:, 0] = cost[:, 0]
    if width > 1:
        row[:, 1:] = row[:, :1] + np.cumsum(cost[:, 1:] + p, axis=1)
    following = np.empty_like(row)
    prefix = np.empty_like(row)
    entry = np.empty((live, width - 1))

    def finish(ended: int) -> None:
        finals = row[np.arange(ended, live), n[ended:] - 1]
        if check:
            finals = np.where(finals <= cutoff, finals, np.inf)
        out[at[ended:]] = finals

    for i in range(1, int(m[0])):
        ended = live
        while ended and m[ended - 1] <= i:
            ended -= 1
        if ended < live:  # these pairs' x sequences ended at row i - 1
            finish(ended)
            if not ended:
                return out
            live = ended
            at, x_at, m, n, y = at[:live], x_at[:live], m[:live], n[:live], y[:live]
            row, following = row[:live], following[:live]
            cost, prefix, entry = cost[:live], prefix[:live], entry[:live]
        if check:
            alive = row.min(axis=1) <= threshold
            if not alive.any():
                return out
            if alive.sum() * 2 <= live:
                live = int(alive.sum())
                at, x_at, m, n, y = at[alive], x_at[alive], m[alive], n[alive], y[alive]
                row, following = row[alive], following[:live]
                cost, prefix, entry = cost[:live], prefix[:live], entry[:live]
        np.subtract(x[x_at + i][:, None], y, out=cost)
        np.abs(cost, out=cost)
        np.add(row[:, 0], cost[:, 0], out=following[:, 0])
        following[:, 0] += p  # asynchronous step along x
        if width > 1:
            # Entry values A[j]: arrive diagonally or vertically.  The
            # prefix sum is the accumulate np.cumsum runs, called directly.
            np.add.accumulate(cost, axis=1, out=prefix)
            np.add(row[:, 1:], p, out=entry)
            np.minimum(row[:, :-1], entry, out=entry)
            entry -= prefix[:, :-1]
            entry -= jp
            np.minimum.accumulate(entry, axis=1, out=entry)
            anchor = following[:, 0] - prefix[:, 0]
            np.minimum(anchor[:, None], entry, out=entry)
            np.add(prefix[:, 1:], jp, out=following[:, 1:])
            following[:, 1:] += entry
        row, following = following, row
    finish(0)
    return out


def plan_pair_blocks(m, n) -> List[np.ndarray]:
    """Split pairs with x lengths ``m`` and y lengths ``n`` into blocks.

    Pairs are grouped by the length class of their y sequence, the
    octave ``[2**c, 2**(c + 1))`` holding it, so a group pads a y
    sequence by less than 2x.  Going up from the narrowest, a group
    joins the next wider one when the padding cells that costs are fewer
    than :data:`ROW_CELLS` per DP row it saves (a merged block sweeps the
    longer of the two x lengths once, not both).  Each group is ordered
    by x length, longest first (stable), and cut so a block's pairs times
    its width stay within :data:`BLOCK_CELLS`.  The x length needs no
    class of its own: the body drops a pair from the sweep once its x
    sequence ends.  Every pair position appears in exactly one block, and
    the plan depends only on the lengths.
    """
    m = np.asarray(m, dtype=np.intp)
    n = np.asarray(n, dtype=np.intp)
    if not m.size:
        return []
    classes = np.frexp(n)[1]  # exact floor(log2(n)) + 1
    order = np.argsort(classes, kind="stable")
    cuts = np.flatnonzero(np.diff(classes[order])) + 1
    groups: List[np.ndarray] = []
    for group in np.split(order, cuts):
        if groups:
            narrow = groups[-1]
            padding = int(m[narrow].sum()) * int(n[group].max() - n[narrow].max())
            saved = min(int(m[narrow].max()), int(m[group].max()))
            if padding < ROW_CELLS * saved:
                groups[-1] = np.concatenate((narrow, group))
                continue
        groups.append(group)
    blocks = []
    for group in groups:
        group = group[np.argsort(-m[group], kind="stable")]
        rows = max(1, BLOCK_CELLS // int(n[group].max()))
        blocks += [group[s : s + rows] for s in range(0, group.size, rows)]
    return blocks


def dtw_pairs(items_a, items_b, pairs, asynchrony_penalty: float = 0.0) -> np.ndarray:
    """``dtw_distance(items_a[i], items_b[j])`` for every ``(i, j)`` in ``pairs``.

    The pairs run through :func:`plan_pair_blocks` and the block body, so
    a long sequence widens only the blocks of its own length class.  Each
    distance is bit-identical to the serial DP; duplicate pairs and
    ``(i, i)`` pairs are computed like any other.
    """
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    out = np.empty(len(pairs))
    if not len(pairs):
        return out
    used_a, rows_a = np.unique(pairs[:, 0], return_inverse=True)
    used_b, rows_b = np.unique(pairs[:, 1], return_inverse=True)
    bank_a = PaddedBank([items_a[i] for i in used_a])
    bank_b = PaddedBank([items_b[j] for j in used_b])
    x = bank_a.matrix.ravel()
    x_at = rows_a * bank_a.matrix.shape[1]
    m = bank_a.lengths[rows_a]
    n = bank_b.lengths[rows_b]
    p = float(asynchrony_penalty)
    for block in plan_pair_blocks(m, n):
        y = bank_b.matrix[rows_b[block], : n[block].max()]
        out[block] = _dtw_block(x, x_at[block], m[block], y, n[block], p)
    return out


def dtw_one_to_many(
    query, bank, asynchrony_penalty: float = 0.0, cutoff: float = np.inf
) -> np.ndarray:
    """Penalty-DTW of ``query`` against every bank row, batched.

    The bank rows are split into blocks by :func:`plan_pair_blocks`, each
    trimmed to its longest row, and every block runs the pair body with
    the query shared by all its pairs — one vectorized pass per query
    element instead of one DP per row.  Returned distances are
    bit-identical to ``dtw_distance(query, bank[b])``.

    With a finite ``cutoff``, rows whose running DP minimum exceeds it
    are abandoned exactly (reported as ``inf``); once no more than half a
    block's rows survive, the block is compacted to the survivors.  The
    rounding slack is taken over the bank's full width, so trimming a
    block never makes pruning less conservative.
    """
    if asynchrony_penalty < 0:
        raise ValueError("asynchrony_penalty must be non-negative")
    bank = _as_bank(bank)
    x = np.asarray(query, dtype=float)
    if x.size == 0:
        raise ValueError("empty sequence")
    p = float(asynchrony_penalty)
    threshold = np.inf
    if np.isfinite(cutoff):
        max_abs = max(float(np.abs(x).max()), float(np.abs(bank.matrix).max()))
        threshold = cutoff + _drift_margin(x.size, bank.matrix.shape[1], max_abs, p)
    else:
        cutoff = np.inf  # any non-finite cutoff prunes nothing
    m = np.full(len(bank), x.size)
    x_at = np.zeros(len(bank), dtype=np.intp)
    out = np.empty(len(bank))
    for block in plan_pair_blocks(m, bank.lengths):
        n = bank.lengths[block]
        y = bank.matrix[block, : n.max()]
        out[block] = _dtw_block(x, x_at[block], m[block], y, n, p, cutoff, threshold)
    return out


# -- pruned nearest neighbor ------------------------------------------------


def argmin_distance(
    query,
    bank,
    asynchrony_penalty: float = 0.0,
    block_size: int = 32,
) -> Tuple[int, float]:
    """Nearest bank row to ``query`` under penalty-DTW, with exact pruning.

    Candidates are ordered by :func:`lb_one_to_many` (ascending, stable);
    blocks run through the batched DP with the best-so-far distance as
    the abandon cutoff, and once a block's smallest lower bound exceeds
    the best-so-far (plus the :func:`_drift_margin` rounding slack) the
    remaining candidates are discarded without any DP work.  All pruning
    is strict-``>`` against the slackened threshold, so the returned
    ``(index, distance)`` — including first-minimum tie-breaking — is
    identical to a naive full scan with ``np.argmin``.
    """
    if block_size < 1:
        raise ValueError("block_size must be at least 1")
    bank = _as_bank(bank)
    query = np.asarray(query, dtype=float)
    bounds = lb_one_to_many(query, bank, asynchrony_penalty)
    order = np.argsort(bounds, kind="stable")
    max_abs = max(float(np.abs(query).max()), float(np.abs(bank.matrix).max()))
    margin = _drift_margin(
        query.size, bank.matrix.shape[1], max_abs, float(asynchrony_penalty)
    )
    best = np.inf
    best_index = -1
    for start in range(0, order.size, block_size):
        block = order[start : start + block_size]
        if bounds[block[0]] > best + margin:
            break  # ascending bounds: everything after is pruned too
        block = block[bounds[block] <= best + margin]
        if block.size == 0:
            continue
        distances = dtw_one_to_many(
            query, bank.subset(block), asynchrony_penalty, cutoff=best
        )
        for index, distance in zip(block, distances):
            if distance < best or (distance == best and index < best_index):
                best = float(distance)
                best_index = int(index)
    return best_index, best


# -- the batchable measure object -------------------------------------------


class PenaltyDtw:
    """Penalty-DTW as a batchable distance-kernel object.

    A drop-in distance callable (``kernel(x, y)`` equals
    :func:`repro.core.dtw.dtw_distance`) that additionally exposes the
    batched and pruned entry points.  The
    :class:`~repro.core.distengine.DistanceEngine` recognizes instances
    and hands matrix / pair-list / one-to-many computations to
    :meth:`pair_distances` instead of per-pair Python calls
    (bit-identical results; see module docstring).
    """

    __slots__ = ("penalty",)

    def __init__(self, asynchrony_penalty: float = 0.0):
        if asynchrony_penalty < 0:
            raise ValueError("asynchrony_penalty must be non-negative")
        self.penalty = float(asynchrony_penalty)

    def __call__(self, x, y) -> float:
        return dtw_distance(x, y, asynchrony_penalty=self.penalty)

    def __repr__(self) -> str:
        return f"PenaltyDtw({self.penalty!r})"

    @property
    def distance_key(self) -> str:
        """Cache key naming the measure and its parameter."""
        return f"dtw:p={self.penalty!r}"

    def bank(self, sequences) -> PaddedBank:
        return _as_bank(sequences)

    def lower_bounds(self, query, bank) -> np.ndarray:
        return lb_one_to_many(query, bank, self.penalty)

    def one_to_many(self, query, bank, cutoff: float = np.inf) -> np.ndarray:
        return dtw_one_to_many(query, bank, self.penalty, cutoff=cutoff)

    def pair_distances(self, items_a, items_b, pairs) -> np.ndarray:
        return dtw_pairs(items_a, items_b, pairs, self.penalty)

    def argmin(self, query, bank, block_size: int = 32) -> Tuple[int, float]:
        return argmin_distance(query, bank, self.penalty, block_size=block_size)


# -- L1 prefix matching on the shared bank machinery ------------------------


def l1_prefix_distances(bank: PaddedBank, partial, penalty: float) -> np.ndarray:
    """L1 prefix distance of ``partial`` against every bank row.

    One vectorized pass equivalent to ``l1_distance(partial,
    row[:partial.size], penalty)`` per row: the common prefix contributes
    element-wise absolute differences and each element of ``partial``
    beyond a row's end contributes ``penalty``.
    """
    partial = np.asarray(partial, dtype=float)
    width = min(partial.size, bank.matrix.shape[1])
    diff = np.abs(bank.matrix[:, :width] - partial[:width])
    if bank.lengths.min() < width:
        # Padding columns of shorter rows must not contribute.
        diff[bank.columns[:width] >= bank.lengths[:, None]] = 0.0
    surplus = np.maximum(partial.size - bank.lengths, 0)
    return diff.sum(axis=1) + surplus * penalty


class PrefixL1Sweeper:
    """Incremental per-window L1 prefix sweep over a padded bank.

    The streaming pipeline extends a partial pattern one value at a time;
    :meth:`extend` adds that window's contribution to a running
    per-row distance vector in one vectorized O(bank) update.  Windows
    are accumulated strictly in order, so the running vector is
    bit-identical to the scalar per-row accumulation (and to a
    :meth:`start` rebuild after a checkpoint restore).
    """

    __slots__ = ("bank", "penalty")

    def __init__(self, bank: PaddedBank, penalty: float):
        if penalty < 0:
            raise ValueError("penalty must be non-negative")
        self.bank = bank
        self.penalty = float(penalty)

    def start(self, pattern) -> np.ndarray:
        """Running distances for an already-observed pattern prefix.

        Accumulates window by window in the same order :meth:`extend`
        would have, so a restored run continues bit-identically.
        """
        distances = np.zeros(len(self.bank))
        for w, value in enumerate(pattern):
            self.extend(distances, w, float(value))
        return distances

    def extend(self, distances: np.ndarray, w: int, value: float) -> None:
        """Add window ``w`` with metric ``value`` to ``distances`` in place."""
        matrix = self.bank.matrix
        if w < matrix.shape[1]:
            distances += np.where(
                self.bank.lengths > w,
                np.abs(value - matrix[:, w]),
                self.penalty,
            )
        else:
            distances += self.penalty
