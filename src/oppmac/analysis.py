"""Renewal-reward throughput model for the opportunistic MAC.

A renewal cycle runs between consecutive successful-transmission ends and
contains exactly one success.  The pairs are exchangeable, so conditioning
on the census c of all N pairs at the start of each contention period
yields one linear system Y = r + M Y for P(the AP side / the STA side wins
the cycle | c) and E[R | c].  A tagged pair wins with 1/N of its side's
probability, since rho_i P_{N-1}(c - e_i) = P_N(c) k_i / N; exactly one
queue wins, so Y_AP + Y_STA = 1 at every census whose cycle ends (checked).

M holds only periods that end without a success; no queue empties in them, so
off its diagonal M moves strictly up in level L = k1 + k2 + 2 k3, and
``block_sweep`` solves it by level.

A period that does not end the cycle lasts one of (t_max+1)(|H|+1) windows
t, in which each empty queue gets an arrival with p_t = 1 - exp(-lambda t).
The arrival moves between censuses are the cells of M, one record per
(source, destination): a move raises p_t to the g levels it gains and
1 - p_t to the 2n - L - g queues it leaves empty, L the source's level, so
a cell keeps its destination, its (source, gain) entry and its moves'
coefficient sum.  M is never stored: ``CensusSpace.cells`` streams the
cells a chunk at a time from the top level down, and ``block_sweep`` forms
coeff * sum_t w_t p_t^g (1-p_t)^(2n-L-g) per cell and solves the chunk's
censuses at every rate of a grid at once (``cycle_models``), w_t the
census's chance that the period ends without a success after window t,
read from one (source, gain) table per rate.  The censuses are numbered in
sweep order, by level, so a cell's destination is its index in y.
Occupancy enters only through the i.i.d. per-queue prior (P_A, P_S): the
fixed point lambda = Theta_AP = Theta_STA reweights the solved vectors by
multinomial census probabilities, in one pass per iterate.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .core import MacTiming, ParameterError, SystemConfig, TimerPolicy
from .kernels import PAIR_STATES, ConsistencyError, KernelTable, _gl_nodes, build_kernels


@dataclass(frozen=True)
class AnalysisSolution:
    """Fixed-point output at one arrival rate."""

    lambda_pps: float
    p_a: float
    p_s: float
    expected_renewal_us: float
    pbar_a: float
    pbar_s: float
    theta_ap_pps: float
    theta_sta_pps: float
    converged: bool
    iterations: int
    identity_error: float = 0.0  # max observed |N(pbar_a + pbar_s) - 1|
    # why a non-converged iteration stopped: "iteration cap", "pinned" (a
    # coordinate held at 1 - FP_EPS) or "one side never wins" (its theta is 0)
    reason: str = ""


def enumerate_censuses(n: int) -> list[tuple[int, int, int]]:
    """All (k1, k2, k3) with k1 + k2 + k3 <= n in sweep order: by level
    k1 + k2 + 2 k3, then lexicographically."""
    return sorted(((k1, k2, k3)
                   for k1 in range(n + 1)
                   for k2 in range(n - k1 + 1)
                   for k3 in range(n - k1 - k2 + 1)), key=lambda c: c[0] + c[1] + 2 * c[2])


_CHUNK_MOVES = 1 << 16  # moves per pass of the cell build, within one level


def cell_total(n: int) -> int:
    """The number of cells of M over the censuses of n pairs, a degree-6
    polynomial in n, without enumerating a census."""
    return sum(a * math.comb(n, k) for k, a in enumerate((1, 8, 26, 44, 41, 20, 4)))


MAX_CELLS = cell_total(60)  # the largest census system an analysis takes on


# The cells of M out of the censuses ``rows`` (a slice) of one ``level``, by
# source, then destination ``to``: M[cell] = coeff * table.flat[term], term =
# source * (2n+1) + level gain indexing an ``arrival_table``, coeff the sum of
# the cell's moves' coefficients; ``first[i]`` is the first cell of census
# rows.start + i.
CellChunk = namedtuple("CellChunk", "level rows to term coeff first")


class CensusSpace:
    """The censuses of ``n`` pairs and the arrival moves between them.

    Shared by the models of every rate of a grid (``cycle_models``), so the
    arrays are read-only.  The censuses are in sweep order
    (``enumerate_censuses``).  ``counts`` holds (n0, k1, k2, k3) per census,
    ``level`` its number of nonempty queues, k1 + k2 + 2 k3, and
    ``lookup[k1, k2, k3]`` its index.
    """

    def __init__(self, n: int):
        self.n = n
        self.censuses = tuple(enumerate_censuses(n))
        self.counts = np.array([(n - sum(c),) + c for c in self.censuses])
        self.level = self.counts @ (0, 1, 1, 2)  # nonempty queues of S0 .. S3
        self.multinom = np.array([math.factorial(n) / math.prod(map(math.factorial, k))
                                  for k in self.counts.tolist()])
        self.lookup = np.full((n + 1,) * 3, -1)
        self.lookup[tuple(self.counts[:, 1:].T)] = np.arange(len(self.censuses))
        for arr in (self.counts, self.level, self.multinom, self.lookup):
            arr.flags.writeable = False

    def cells(self) -> Iterator[CellChunk]:
        """The ``CellChunk``s of the moves out of every census, from the top
        level down.  A move (a, b, c, d, e) fills a of the k1 AP-only and b
        of the k2 STA-only pairs and turns c / d / e empty pairs AP-only /
        STA-only / full; it gains a + b + c + d + 2e levels, and the other
        2n - level - gain empty queues stay empty.

        One numpy pass per level, or per chunk of about ``_CHUNK_MOVES`` moves
        of a larger level: its sources' rows (source, a, b) expand into the
        fills (c, d, e) of their n0 empty pairs, a slice of one table of the
        fills of 0..n pairs, so each value is a row part plus (times) a fill
        part; a (source, census) mask's cumsum numbers the chunk's cells, and
        a bincount sums each cell's coefficients by source, a, b, then fill.
        A chunk is yielded once its cell count and coefficient sums pass
        their checks, and is not kept; ``to`` and ``term`` are int32."""
        n, ne, nc = self.n, 2 * self.n + 1, len(self.censuses)
        binom = self._binomials
        fact = [math.factorial(m) for m in range(n + 1)]
        fills = [(m,) + c for m in range(n + 1) for c in enumerate_censuses(m)]
        fill_mult = np.array([fact[m] / (fact[m - c - d - e] * fact[c] * fact[d] * fact[e])
                              for m, c, d, e in fills])
        _, c, d, e = np.array(fills).T
        fill_at = (c * (n + 1) + d) * (n + 1) + e  # offset into the flat lookup
        n0, k1, k2, _ = self.counts.T
        moves = np.cumsum((k1 + 1) * (k2 + 1) * (n0 + 1) * (n0 + 2) * (n0 + 3) // 6)
        cuts = np.flatnonzero(np.diff(moves // _CHUNK_MOVES) | np.diff(self.level)) + 1
        cell_counts = self._cell_counts()
        for lo, hi in reversed(list(zip([0, *cuts], [*cuts, nc]))):
            rows = slice(lo, hi)
            ab = (self.counts[rows, 1] + 1) * (self.counts[rows, 2] + 1)
            pos = np.repeat(np.arange(hi - lo), ab)  # per row, its source's position
            n0, k1, k2, k3 = self.counts[lo + pos].T
            a, b = np.divmod(np.arange(len(pos)) - np.repeat(np.cumsum(ab) - ab, ab), k2 + 1)
            size = (n0 + 1) * (n0 + 2) * (n0 + 3) // 6  # fills of n0 pairs, from C(n0 + 3, 4) on
            fill = np.repeat(n0 * size // 4 - np.cumsum(size) + size, size) + np.arange(size.sum())
            at = fill_at[fill]
            at += np.repeat(((k1 - a) * (n + 1) + k2 - b) * (n + 1) + k3 + a + b, size)
            key = self.lookup.ravel()[at]
            key += np.repeat(pos * nc, size)
            hit = np.zeros((hi - lo) * nc, dtype=bool)
            hit[key] = True
            cell = (np.cumsum(hit, dtype=np.int32) - 1)[key]
            found = np.flatnonzero(hit)
            counted = cell_counts[rows].sum()
            if len(found) != counted:
                raise ConsistencyError(f"censuses {lo}..{hi - 1} have {len(found)} "
                                       f"cells, not the {counted} counted")
            src_pos, dest = np.divmod(found, nc)
            gain = self.level[dest] - self.level[lo + src_pos]
            move_coeff = fill_mult[fill]
            move_coeff *= np.repeat(binom[k1, a] * binom[k2, b], size)
            coeff = np.bincount(cell, move_coeff, minlength=len(dest))
            self._check_arrival_sums(rows, src_pos * ne + gain, coeff)
            del hit, key, at, fill, cell, move_coeff  # the sweep runs while this waits
            yield CellChunk(int(self.level[lo]), rows, dest.astype(np.int32),
                            ((lo + src_pos) * ne + gain).astype(np.int32), coeff,
                            np.searchsorted(src_pos, np.arange(hi - lo)))

    @functools.cached_property
    def _binomials(self) -> np.ndarray:
        """C(r, k) for r, k = 0..2n, as floats (0 for k > r)."""
        ne = 2 * self.n + 1
        return np.array([[math.comb(r, k) for k in range(ne)] for r in range(ne)], dtype=float)

    def _cell_counts(self) -> np.ndarray:
        """The number of cells of each census (k1, k2, k3), in closed form:
        it reaches (u, v, k3 + j) iff the pairs that became full, j, cover
        the AP-only and STA-only pairs it lost, max(0, k1 - u) + max(0, k2 -
        v) <= j, and u + v + j <= n - k3; summed over v and j, one u at a
        time."""
        n = self.n
        _, k1, k2, k3 = self.counts.T
        j = np.arange(n + 1)
        count = np.zeros(len(k1), int)
        for u in range(n + 1):
            left = j - np.maximum(k1 - u, 0)[:, None]  # full pairs past the lost AP-only ones
            room = (n - k3 - u)[:, None] - j - np.maximum(k2[:, None] - left, 0) + 1
            count += np.where(left >= 0, np.maximum(room, 0), 0).sum(axis=1)
        return count

    def _check_arrival_sums(self, rows, at, coeff) -> None:
        """Each of the 2n - level(o) empty queues of a census o gets an
        arrival independently, so with p and 1 - p factored out its row sums
        to 1 only if the coefficients of o's cells that gain g levels sum to
        C(2n - level(o), g).  ``at`` is, per cell of the censuses ``rows`` (a
        slice), its source's position in ``rows`` * (2n+1) + gain.  Raises
        ``ConsistencyError`` where the sums are off."""
        ne, level = 2 * self.n + 1, self.level[rows]
        sums = np.bincount(at, coeff, minlength=len(level) * ne).reshape(-1, ne)
        want = self._binomials[2 * self.n - level]
        bad = np.argwhere(np.abs(sums - want) > 1e-12 * want)
        if len(bad):
            o, g = bad[0]
            raise ConsistencyError(f"the moves of census {self.censuses[rows][o]} that gain "
                                   f"{g} levels sum to {sums[o, g]}, not {want[o, g]}")

    def arrival_table(self, weights: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Table [o, g] = sum_t weights[o, t] p_t^g (1 - p_t)^(2n - L - g) for
        a census o at level L and g = 0..2n - L (0 for larger g): the chance
        that g of o's 2n - L empty queues get an arrival in window t, one
        (censuses at L, windows) @ (windows, 2n + 1 - L) product per level."""
        ne = 2 * self.n + 1
        g = np.arange(ne)
        pw, qw = p[:, None] ** g, (1.0 - p)[:, None] ** g
        table = np.zeros((len(self.level), ne))
        for lv in range(ne):
            rows = np.flatnonzero(self.level == lv)
            table[rows, :ne - lv] = weights[rows] @ (pw[:, :ne - lv] * qw[:, ne - lv - 1::-1])
        return table

    def prior(self, p_a: float, p_s: float) -> np.ndarray:
        """The census probabilities when every AP queue is nonempty with
        probability p_a and every STA queue with p_s, all independently."""
        if not (0.0 <= p_a <= 1.0 and 0.0 <= p_s <= 1.0):
            raise ParameterError("occupancy probabilities must lie in [0, 1]")
        rho = ((1 - p_a) * (1 - p_s), p_a * (1 - p_s), (1 - p_a) * p_s, p_a * p_s)
        out = self.multinom
        for j in PAIR_STATES:
            out = out * rho[j] ** self.counts[:, j]
        return out


_OUT_OF_ORDER = "the cells must cover the censuses from the last down, a level at a time"


def block_sweep(chunks: Iterable[CellChunk], tables: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve y = rhs + M y at every rate r at once, M holding coeff *
    tables[r].flat[term] on the cells of ``chunks`` (as ``CensusSpace.cells``
    yields them), formed one chunk at a time.  From the top level down,
    y[o] = (rhs[o] + M[o, higher] y) / (1 - M[o, o]) for the censuses o of a
    chunk, one slice of y; rhs[r] is (censuses, columns), and so is y[r].
    Chunks that do not cover the censuses from the last down, a level at a
    time, or a census without one diagonal cell raise ``ValueError``; a
    cell that does not go up a level, or a diagonal entry not below 1,
    ``ConsistencyError``."""
    flat = tables.reshape(len(tables), -1)
    rhs = rhs.transpose(0, 2, 1)  # (rates, columns, censuses)
    y = np.zeros(rhs.shape)
    level, bottom = math.inf, rhs.shape[2]
    for chunk in chunks:
        rows = chunk.rows
        if chunk.level > level or rows.stop != bottom:
            raise ValueError(_OUT_OF_ORDER)
        if chunk.level < level:  # the censuses from ``above`` on are higher up
            level, above = chunk.level, bottom
        bottom = rows.start
        census = np.arange(rows.start, rows.stop)
        src = np.repeat(census, np.diff(chunk.first, append=len(chunk.to)))
        on = np.flatnonzero(chunk.to == src)
        if not np.array_equal(src[on], census):
            raise ValueError("every census needs its diagonal cell")
        up = (chunk.to >= above) | (chunk.to == src)
        if not up.all():
            raise ConsistencyError(f"census {src[np.argmin(up)]} has a move that does not "
                                   f"leave level {level} upwards")
        vals = flat.take(chunk.term, axis=1) * chunk.coeff
        stay = 1.0 - vals[:, on]
        if not (stay > 0.0).all():
            raise ConsistencyError(f"a diagonal entry at level {level} is not below 1")
        moved = vals[:, None] * y.take(chunk.to, axis=2)  # 0 at this level
        y[:, :, rows] = (rhs[:, :, rows] + np.add.reduceat(moved, chunk.first, axis=2)) \
            / stay[:, None]
    if bottom != 0:
        raise ValueError(_OUT_OF_ORDER)
    return y.transpose(0, 2, 1)


class CycleModel:
    """Per-census win probabilities and renewal lengths at one rate.

    Everything except the occupancy prior is fixed by the kernels (which
    carry lambda), the timing, the per-state PER and the censuses of N and
    N - 1 pairs.  Once ``cycle_models`` has solved the census system,
    ``win_by_census[c]`` holds P(the AP side / the STA side wins the cycle |
    census c of ``space``), ``renewal_by_census[c]`` E[R | c], and
    ``throughput`` aggregates them under a prior.
    """

    def __init__(self, kernels: KernelTable, timing: MacTiming, per, space: CensusSpace,
                 others: CensusSpace):
        self.kernels, self.timing, self.space, self._others = kernels, timing, space, others
        self.per = np.asarray(per, dtype=float)
        self.lambda_pps, self.n = kernels.lambda_pps, space.n
        self.kmax, self.num_states = kernels.t_max, kernels.policy.num_states
        if len(self.per) != self.num_states:
            raise ParameterError("PER vector length does not match channel states")
        delta = kernels.policy.delta_us
        if timing.slot_us != delta:
            raise ParameterError(f"timing slot {timing.slot_us!r} us differs from "
                                 f"the timer slot {delta!r} us")

        # window [k, s]: resolution at slot k, then a success in state s or,
        # for s = num_states, a collision; p is the per-queue arrival chance
        tx = [timing.per_state_tx_us[s] for s in range(self.num_states)] + [timing.collision_us]
        self._windows = (np.arange(self.kmax + 1) * delta)[:, None] + np.array(tx)
        self._p = -np.expm1(-(self.lambda_pps * 1e-6) * self._windows.ravel())

        self._summarise()

    # ----- contention summaries of every census -------------------------

    def _summarise(self) -> None:
        """Against each census of the other n-1 pairs, at k = 0..t_max: the
        expected uniform-pick share of one more AP queue expiring at k and the
        probability that all those pairs survive past k.  Per census of all n
        pairs: clean-win mass succ[c, k, winner state], collision col[c, k]
        and won[c] = P(an AP / a STA queue wins and delivers this period)."""
        kt, others = self.kernels, self._others
        # P(tau_min^j > k - 1) and P(tau_min^j > k) at k = 0..t_max
        before, surv = kt.surv[:, :-1], kt.surv[:, 1:]
        cnt = others.counts[:, :, None]
        share = np.zeros((len(others.counts), self.kmax + 1))
        for x, w in zip(*_gl_nodes(self.n - 1)):
            share += w * np.prod((surv + x * kt.cum_ap) ** cnt, axis=1)
        alone = np.prod(surv ** cnt, axis=1)
        self._others_share = share

        # the census of all n pairs when one pair is in state i and the
        # others are in census o (one-to-one for each i)
        grown = others.counts[None, :, 1:] + np.eye(4, dtype=int)[:, None, 1:]
        combined = self.space.lookup[tuple(np.moveaxis(grown, 2, 0))]
        counts = self.space.counts
        delivered = 1.0 - self.per
        succ = np.zeros((len(counts), self.kmax + 1, self.num_states))
        won = np.zeros((len(counts), 2))
        for i in PAIR_STATES:  # the censuses with an s_i pair, and its others
            c = combined[i]
            ci = counts[c, i]
            succ[c] += ci[:, None, None] * kt.ap_by_state[i] * share[:, :, None]
            succ[c] += ci[:, None, None] * kt.sta_by_state[i] * alone[:, :, None]
            won[c, 0] += ci * (share @ (kt.ap_by_state[i] @ delivered))
            won[c, 1] += ci * (alone @ (kt.sta_by_state[i] @ delivered))
        cnt = counts[:, :, None]
        col = np.prod(before ** cnt, axis=1) - np.prod(surv ** cnt, axis=1) - succ.sum(axis=2)
        bad = np.flatnonzero(col.min(axis=1) < -1e-9)
        if len(bad):
            raise ConsistencyError(f"negative collision mass {col[bad[0]].min()} "
                                   f"at census {self.space.censuses[bad[0]]}")
        self.succ, self.col, self._won = succ, np.clip(col, 0.0, None), won

    # ----- the census linear system ---------------------------------------

    def _census_system(self):
        """(table, rhs): the ``arrival_table`` from which ``block_sweep``
        forms M's entries on the cells of ``space.cells()``, and the rhs
        columns P(the AP side / the STA side wins this period) and the mean
        period length.  The empty census's row is the idle closed form that
        ``_settle`` applies after the sweep in place of its cells' values, so
        its rhs holds only the wait for the first arrival."""
        space = self.space
        nc = len(space.counts)
        # weights[c, window]: the period ends without a success (errored
        # success or collision) after that window; period[c] is its mean length
        succ, col = self.succ, self.col
        weights = np.concatenate([succ * self.per, col[:, :, None]], 2).reshape(nc, -1)
        period = ((succ * self._windows[:, :-1]).reshape(nc, -1).sum(axis=1)
                  + (col * self._windows[:, -1]).sum(axis=1))
        rhs = np.column_stack([self._won, period])
        # idle (closed form): wait 1/(2 N lambda) for the first arrival
        empty = space.lookup[0, 0, 0]
        rhs[empty] = 0.0
        if self.lambda_pps > 0.0:
            rhs[empty, 2] = 1.0 / (2.0 * self.n * self.lambda_pps * 1e-6)
        return space.arrival_table(weights, self._p), rhs

    def _settle(self, y: np.ndarray, rhs: np.ndarray) -> None:
        """Keeps y, swept at right-hand side rhs, once it passes the checks."""
        # the empty census is the only one at level 0, so its closed-form row
        # replaces the cells' row after the sweep: the first arrival makes
        # one pair AP-only or STA-only with 1/2 each
        at = self.space.lookup
        empty = at[0, 0, 0]
        if self.lambda_pps > 0.0:
            y[empty] = rhs[empty] + 0.5 * y[at[1, 0, 0]] + 0.5 * y[at[0, 1, 0]]
        if not np.all(np.isfinite(y)):
            raise ConsistencyError("census linear system produced non-finite values")
        if self.lambda_pps == 0.0:  # no arrivals: the empty census never ends
            y[empty, 2] = np.inf
        # every cycle that ends has exactly one winner
        err = np.abs(y[:, 0] + y[:, 1] - 1.0)
        bad = np.flatnonzero((err > 1e-9) & np.isfinite(y[:, 2]))
        if len(bad):
            raise ConsistencyError(f"the win probabilities of census "
                                   f"{self.space.censuses[bad[0]]} sum to "
                                   f"{y[bad[0], 0] + y[bad[0], 1]}, not 1")
        self.win_by_census, self.renewal_by_census = y[:, :2], y[:, 2]

    # ----- aggregation ----------------------------------------------------

    def throughput(self, p_a: float, p_s: float):
        """(theta_ap_pps, theta_sta_pps, e_r_us, pbar_a, pbar_s) under the
        occupancy prior (p_a, p_s), pbar_a / pbar_s being P(a given pair's
        AP / STA queue wins the cycle).  The sums are Python's sum in census
        order: the fixed point amplifies a change of summation order."""
        probs = self.space.prior(p_a, p_s)
        keep = probs > 0.0  # E[R | empty] is inf when lambda = 0
        probs = probs[keep]
        e_r = sum((probs * self.renewal_by_census[keep]).tolist())
        ap, sta = self.win_by_census[keep].T
        pbar_a = sum((probs * ap).tolist()) / self.n
        pbar_s = sum((probs * sta).tolist()) / self.n
        return pbar_a / e_r * 1e6, pbar_s / e_r * 1e6, e_r, pbar_a, pbar_s


FP_GAMMA = 0.5
FP_EPS = 1e-6
FP_TOL = 1e-4
FP_MAX_ITER = 500
FP_PIN_LIMIT = 50


_SECANT_MIN_SLOPE = 1e-3  # ln-ln sensitivity can be ~NP at light load
_SECANT_MAX_STEP = math.log(4.0)


def _next_occupancy(p, theta, lam, prev):
    """One deterministic update of a single occupancy coordinate.

    Base rule is the damped multiplicative step p * (lam/theta)^gamma; when
    the last two iterates expose a usable local slope of ln(theta) versus
    ln(p), a clamped log-space secant step replaces it (the multiplicative
    rule alone stalls at light load where theta barely responds to p).
    """
    lp, lt = math.log(p), math.log(theta)
    step = FP_GAMMA * (math.log(lam) - lt)
    if prev is not None:
        lp0, lt0 = prev
        if abs(lp - lp0) > 1e-14:
            slope = (lt - lt0) / (lp - lp0)
            if slope > _SECANT_MIN_SLOPE:
                step = (math.log(lam) - lt) / slope
    step = min(max(step, -_SECANT_MAX_STEP), _SECANT_MAX_STEP)
    new_p = min(max(math.exp(lp + step), FP_EPS), 1.0 - FP_EPS)
    return new_p, (lp, lt)


def cycle_models(kernels: Sequence[KernelTable], timing: MacTiming, per,
                 n: int) -> list[CycleModel]:
    """A solved ``CycleModel`` of n pairs per kernel table (one per arrival
    rate), all from one pass over ``CensusSpace(n).cells()``."""
    if n < 1:
        raise ParameterError("need at least one pair")
    if not kernels:
        return []
    space, others = CensusSpace(n), CensusSpace(n - 1)
    models = [CycleModel(kt, timing, per, space, others) for kt in kernels]
    tables, rhs = (np.stack(part) for part in zip(*(m._census_system() for m in models)))
    for model, y, r in zip(models, block_sweep(space.cells(), tables, rhs), rhs):
        model._settle(y, r)
    return models


def fixed_points(lambdas: Sequence[float], config: SystemConfig, policy: TimerPolicy,
                 pi, timing: MacTiming) -> list[AnalysisSolution]:
    """Solve lambda = Theta_AP = Theta_STA for the occupancy pair (P_A, P_S)
    at each rate of ``lambdas``, their models from one ``cycle_models``.

    Damped multiplicative updates with a safeguarded secant acceleration;
    non-convergence (iteration cap, or either coordinate pinned at 1-eps for
    FP_PIN_LIMIT consecutive iterations) is reported as instability, never
    raised.
    """
    if any(lam <= 0.0 for lam in lambdas):
        raise ParameterError("fixed point requires a positive arrival rate")
    kernels = [build_kernels(policy, pi, lam) for lam in lambdas]
    return [_iterate(model) for model in
            cycle_models(kernels, timing, config.per_state_per, config.n_stations)]


def _iterate(model: CycleModel) -> AnalysisSolution:
    """The fixed-point iterations of ``fixed_points`` at the model's rate."""
    lambda_pps, n = model.lambda_pps, model.n
    pa, ps, prev_a, prev_s = 0.1, 0.1, None, None
    pinned, identity_err, converged, reason = 0, 0.0, False, "iteration cap"
    for iterations in range(1, FP_MAX_ITER + 1):
        theta_ap, theta_sta, e_r, pbar_a, pbar_s = model.throughput(pa, ps)
        identity_err = max(identity_err, abs(n * (pbar_a + pbar_s) - 1.0))
        res_a = abs(theta_ap - lambda_pps) / lambda_pps
        res_s = abs(theta_sta - lambda_pps) / lambda_pps
        if res_a < FP_TOL and res_s < FP_TOL:
            converged, reason = True, ""
            break
        if theta_ap == 0.0 or theta_sta == 0.0:  # no occupancy step from log(0)
            reason = "one side never wins"
            break
        pa, prev_a = _next_occupancy(pa, theta_ap, lambda_pps, prev_a)
        ps, prev_s = _next_occupancy(ps, theta_sta, lambda_pps, prev_s)
        pinned = pinned + 1 if pa >= 1.0 - FP_EPS or ps >= 1.0 - FP_EPS else 0
        if pinned >= FP_PIN_LIMIT:
            reason = "pinned"
            break
    return AnalysisSolution(
        lambda_pps=lambda_pps, p_a=pa, p_s=ps, expected_renewal_us=e_r,
        pbar_a=pbar_a, pbar_s=pbar_s, theta_ap_pps=theta_ap,
        theta_sta_pps=theta_sta, converged=converged, iterations=iterations,
        identity_error=identity_err, reason=reason)

