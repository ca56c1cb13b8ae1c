"""Discrete-event WLAN simulators: one event loop, two MAC policies.

``run_opportunistic`` implements the channel-keyed per-pair backoff MAC:
every nonempty queue sets a timer at the start of a contention period, the
two queues of a pair share one channel state per period (reciprocity),
simultaneous expiries among AP queues are merged by a uniform pick, and any
simultaneity involving an STA queue collides.  ``run_dcf`` is the 802.11
DCF baseline with one aggregate AP queue, binary exponential backoff, and
either ARF or threshold-based rate adaptation.

Both run on ``_run``, which owns the event clock, the channel phase (vacant,
contention, busy), the warmup snapshot, the stop at the run's duration and
the report.  It keeps one stop time: the warmup mark until the snapshot,
then the duration.  The only heap entries are the next arrivals of the empty
queues, the only arrivals that can start or join a contention, each counted
in place; an arrival at a backlogged queue changes no MAC decision and is
counted when that queue's counters are next read.  The channel's one pending
event (a resolution or a transaction end) is a scalar, so no resolution goes
stale.  The channel's events run one after another while each comes before
the next arrival and no later than the stop time, so a contention that no
arrival joins runs to its transaction end in the loop pass that starts it.
At one instant arrivals (lower queue first) precede the channel event, which
precedes the mark; an event at exactly the duration runs.  A MAC is four
hooks and an optional fifth:

- ``start(t)``: a contention among the backlogged queues begins at t;
  return the time it resolves.
- ``join(q, t)``: queue q became backlogged mid-contention; return a new,
  earlier resolution time, or None if the pending one stands.
- ``resolve()``: pick the outcome at the resolution time ``start`` or
  ``join`` last returned; return how long the channel is busy.
- ``end(t)``: the transaction ends; apply the outcome through the shared
  ``_Tally``, the one record of the run, and return nothing.  A success is
  the winner's delivery, so the report's success counts are sums of the
  per-queue deliveries.
- ``stretch(t, mark, stop)``: a transaction ended at t with every queue
  backlogged, so no arrival can start or join a contention and the channel
  runs alone.  Run its contentions and transactions until a transaction end
  empties a queue, and return that end.  The first event past ``mark``
  (the warmup mark, inf once the snapshot is taken) takes the snapshot
  before its outcome is applied; once an event passes ``stop`` (the
  duration), return None, and the run ends.  An event at exactly the mark
  or the duration is run first.

A contention takes one of three paths, each with the draws, in order, of
the per-queue pass:

- lone contender: one backlogged queue, as in most contentions below
  capacity, takes its draws directly, and ``resolve`` with one queue at
  the earliest slot skips the sorting of expiries that a pick or a
  collision needs;
- per-queue pass: two or more backlogged queues (for the opportunistic MAC,
  with some queue empty) are one pass in queue order.  The opportunistic MAC
  keeps a running minimum of its timers, and DCF stores each backoff
  counter as the slot of a virtual idle clock at which it expires.  Both
  keep the queues that reach the minimum, so a resolution reads its
  contenders without a scan;
- batch row: an opportunistic contention with every queue backlogged, which
  no queue can join, is one row of a numpy batch computed from the
  channel-state and timer draws read ahead of their streams.  The batch is
  columns, one entry per row: the earliest slot, the queues reaching it,
  whether it collides, a collision's busy time and a lone winner's state.
  The opportunistic MAC's ``stretch`` takes the rows one after another and
  applies each outcome in one loop; it hands a row to ``resolve`` only for
  an AP merge (AP expiries alone tie).  The rows are the stretch's own: the
  draw streams skip the rows it took when it ends, and the rest are
  dropped.  The first batch of a stretch holds ``BATCH_FIRST`` rows, and
  each next batch twice as many as the last, up to ``BATCH``, so a short
  stretch reads few rows it does not take and a long one few batches.

The engine is strictly deterministic for a given (config, seed): every
random stream has its own generator, whose draws are served from blocks by
one stream type, ``_Draws``, and may be read ahead but are never reordered.
A transmission transaction spans the frame, its acknowledgment, and the
trailing interframe gap; queue state changes are applied when the
transaction completes, so a queue counts as occupied for exactly the
per-attempt duration the analytical model charges it.  Renewal instants
shift by the same constant for every success, leaving renewal-length
statistics unchanged.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import insort
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from operator import length_hint

import numpy as np

from .core import (
    AP,
    STA,
    WARMUP_FRAC,
    ChannelSpace,
    MacTiming,
    ParameterError,
    SystemConfig,
    TimerPolicy,
    check_duration,
    check_rate,
    db_to_linear,
)

# Draws per block of a MAC stream: large enough that the numpy call per block
# is amortised and that one block holds the first batch of a stretch of full
# contentions at N = 30 (BATCH_FIRST * 2N timers); a batch at the cap spans
# several blocks, peeked together.  An arrival stream's block is smaller, as
# there are 2N of them: 2N * 256 draws of 8 bytes, 246 KB at N = 60, which
# amortise the numpy call per block for the arrivals of a saturated run.
DRAW_BLOCK = 1024
ARRIVAL_BLOCK = 256
# Full-backlog contentions the opportunistic MAC reads ahead in one batch: the
# first batch of a stretch of full contentions, and the cap that the batch
# doubles to while the stretch lasts.
BATCH_FIRST = 8
BATCH = 256


class InvariantError(RuntimeError):
    """An internal simulator invariant failed (a bug, not a bad input)."""


@dataclass
class SimReport:
    """Run metrics.  Conservation counters cover the whole run; rates,
    occupancy fractions, and event counts cover the post-warmup window.

    ``winner_state_counts[h]`` counts measured successes by index h, which
    means two things: for the opportunistic MAC, the channel state of the
    winning link; for DCF, the rate index the winner transmitted at (ARF's
    current rate or the threshold rule's last observed state), which may
    differ from the link's state.  The two schemes' counts are therefore not
    comparable as state histograms."""

    scheme: str
    n_stations: int
    lambda_pps: float
    seed: int
    retry_limit: int | None
    duration_us: float
    measured_us: float
    warmup_us: float
    queues: dict
    uplink_pps: float
    downlink_pps: float
    system_pps: float
    collisions: int
    collisions_total: int
    p_a_hat: float
    p_s_hat: float
    renewal_count: int
    mean_renewal_us: float | None
    winner_state_counts: list
    winner_side_counts: dict
    ap_internal_merges: int
    dropped_total: int

    def to_json(self, meta: dict | None = None) -> str:
        data = dict(self.__dict__)
        if meta:
            data["_meta"] = meta
        return json.dumps(data, sort_keys=True, indent=1)


class _QueueStat:
    __slots__ = ("arrivals", "delivered", "dropped", "backlog", "occ_us",
                 "last_t", "retry", "next", "gap")

    def __init__(self):
        self.arrivals = 0
        self.delivered = 0
        self.dropped = 0
        self.backlog = 0
        self.occ_us = 0.0
        self.last_t = 0.0
        self.retry = 0
        self.next = math.inf  # first arrival not yet counted; inf at a zero rate
        self.gap = None  # gives the gaps after it

    def flush(self, t: float) -> None:
        """Count the arrivals due by t, then bring occupancy to t, with the
        float operations, in order, of a flush at each arrival."""
        a = self.next
        if a > t:
            if self.backlog > 0:
                self.occ_us += t - self.last_t
            self.last_t = t
            return
        occ, last, held, gap = self.occ_us, self.last_t, self.backlog, self.gap
        while a <= t:
            if held:
                occ += a - last
            last = a
            held += 1
            a += gap()
        self.arrivals += held - self.backlog
        self.occ_us, self.last_t, self.backlog, self.next = occ + (t - last), t, held, a


class _Tally:
    """The one record of a run: the queues' names and sides, their counters
    and the bookkeeping both MACs share, plus a warmup snapshot for windowed
    metrics.  Success and side counts are sums of the per-queue deliveries.
    ``heap`` holds ``(next arrival, queue)`` for each empty queue and the
    ``(inf, -1)`` sentinel; every read of a queue's counters flushes it."""

    def __init__(self, names: list, ap_ids, num_states: int, retry_limit: int | None):
        self.names = names
        self.ap_ids = ap_ids  # the AP-side queues, ascending
        self.q = [_QueueStat() for _ in names]
        self.retry_limit = retry_limit
        self.backlogged: set[int] = set()  # queues with backlog > 0
        self.heap = [(math.inf, -1)]
        self.collisions = 0
        self.ap_merges = 0
        self.last_success_t = None
        self.first_after_snap = None
        self.winner_states = [0] * num_states
        self.snap = None

    def flush(self, t: float) -> None:
        for qs in self.q:
            qs.flush(t)

    def deliver(self, q: int, t: float, state: int) -> None:
        """Queue q's head packet got through in (rate) state ``state``; the
        pop of ``_pop_head``, written out."""
        qs = self.q[q]
        qs.flush(t)
        if not qs.backlog:
            raise InvariantError(f"queue {self.names[q]} popped while empty")
        qs.backlog -= 1
        qs.retry = 0
        qs.delivered += 1
        if not qs.backlog:
            self.backlogged.discard(q)
            heapq.heappush(self.heap, (qs.next, q))  # later than t
        self.last_success_t = t
        self.winner_states[state] += 1
        if self.snap is not None and self.first_after_snap is None:
            self.first_after_snap = t

    def fail(self, q: int, t: float) -> bool:
        """Queue q's head packet failed an attempt; return whether that
        exhausted its retries, so it was dropped."""
        qs = self.q[q]
        qs.retry += 1
        if self.retry_limit is None or qs.retry <= self.retry_limit:
            return False
        self._pop_head(q, t)
        qs.dropped += 1
        return True

    def collide(self, queues: list, t: float) -> None:
        """The head packets of ``queues`` collided: one collision, and a
        failed attempt of each, as ``fail`` counts it."""
        self.collisions += 1
        limit = self.retry_limit
        for q in queues:
            qs = self.q[q]
            qs.retry += 1
            if limit is not None and qs.retry > limit:
                self._pop_head(q, t)
                qs.dropped += 1

    def _pop_head(self, q: int, t: float) -> None:
        qs = self.q[q]
        qs.flush(t)
        if not qs.backlog:
            raise InvariantError(f"queue {self.names[q]} popped while empty")
        qs.backlog -= 1
        qs.retry = 0
        if not qs.backlog:
            self.backlogged.discard(q)
            heapq.heappush(self.heap, (qs.next, q))  # later than t

    def snapshot(self, t: float) -> None:
        self.flush(t)
        self.first_after_snap = None
        self.snap = {
            "t": t,
            "delivered": [qs.delivered for qs in self.q],
            "occ": [qs.occ_us for qs in self.q],
            "collisions": self.collisions,
            "last_success_t": self.last_success_t,
            "winner_states": list(self.winner_states),
        }


def _rng_streams(seed: int, n_arrival_streams: int):
    """Independent deterministic generators: one per arrival process plus
    named streams (channel, timer/backoff, error coin, pick, destination)."""
    children = np.random.SeedSequence(seed).spawn(n_arrival_streams + 5)
    gens = [np.random.Generator(np.random.PCG64(s)) for s in children]
    return gens[:n_arrival_streams], gens[n_arrival_streams:]


class _Draws:
    """Endless stream of one generator's draws, made ``size`` at a time by
    ``draw(size=size)``.  ``next`` gives the next draw as a Python scalar;
    it is a C-level iterator's ``__next__``, so a scalar draw runs no Python
    frame.  ``peek(m)`` gives the next m draws as an array without consuming
    them (a view of one held block when that block holds them all, so the
    caller must not write to it), and ``skip(m)`` consumes m.  numpy returns
    the same values, in the same order, for k draws in one call as for k
    scalar calls, so while nothing else draws from the generator behind
    ``draw``, any interleaving of the three gives its scalar stream."""

    def __init__(self, draw, size: int):
        self._draw, self._size = draw, size
        self._ahead = deque()  # drawn for a peek, whole blocks, and not yet served
        self._block = draw(size=0)  # the block being served, as drawn
        self._left = iter(())  # the iterator serving the rest of it
        self._served = chain.from_iterable(self._blocks())
        self.next = self._served.__next__

    def _blocks(self):
        while True:
            self._block = self._ahead.popleft() if self._ahead else self._draw(size=self._size)
            self._left = iter(self._block.tolist())
            yield self._left

    def peek(self, m: int) -> np.ndarray:
        head = self._block[len(self._block) - length_hint(self._left):]
        held = [part for part in (head, *self._ahead) if len(part)]
        short = m - sum(map(len, held))
        if short > 0:  # the shortfall in one draw, of whole blocks
            held.append(self._draw(size=-(-short // self._size) * self._size))
            self._ahead.append(held[-1])
        parts = []
        for part in held:  # only the parts the peek reaches, cut at m
            if m <= 0:
                break
            parts.append(part[:m])
            m -= len(part)
        if len(parts) == 1:
            return parts[0]  # a view: no copy
        return np.concatenate(parts) if parts else head[:0]

    def skip(self, m: int) -> None:
        left = length_hint(self._left)
        deque(islice(self._left, min(m, left)), maxlen=0)
        m -= left
        while m > 0:  # past the block being served: whole blocks, then a tail
            block = self._ahead.popleft() if self._ahead else self._draw(size=self._size)
            if m < len(block):
                self._ahead.appendleft(block[m:])
            m -= len(block)


def _backoff_draws(rng):
    """Callable cw -> ``rng.integers(cw + 1)`` for cw + 1 a power of two: numpy's
    bounded method (Lemire's) then never rejects and keeps the top bits of one
    32-bit draw, so the draws are served from blocks of raw 32-bit words."""
    word = _Draws(partial(rng.integers, 0, 1 << 32, dtype=np.uint32), DRAW_BLOCK).next
    return lambda cw: word() >> (32 - cw.bit_length())


def _state_draws(config: SystemConfig, space: ChannelSpace, rng,
                 size: int = DRAW_BLOCK) -> _Draws:
    """Stream of channel states, explicit distribution or Rayleigh quantized,
    each block quantized by one ``searchsorted``."""
    if config.pi is not None:
        cum = np.cumsum(np.asarray(config.pi, dtype=float))
        top = len(cum) - 1  # guards the ~1-ulp shortfall of the last cumsum

        def draw(size):
            return np.minimum(np.searchsorted(cum, rng.random(size), side="right"), top)
    else:
        mean_lin = db_to_linear(config.mean_ebn0_db, "mean_ebn0_db")
        edges = space.thresholds_linear()[1:]

        def draw(size):
            return np.searchsorted(edges, rng.exponential(mean_lin, size), side="right")
    return _Draws(draw, size)


def _gap_draws(rng, mean_us: float):
    """Zero-argument callable giving the successive inter-arrival gaps of one
    Poisson stream with the given mean."""
    return _Draws(partial(rng.exponential, mean_us), ARRIVAL_BLOCK).next


def _run(scheme: str, config: SystemConfig, lambda_pps: float, tally: _Tally,
         next_gap: list, start, join, resolve, end, duration_us: float,
         stretch=None) -> SimReport:
    """The event loop both MACs share; the MAC is the four hooks and an
    optional ``stretch`` (see the module docstring), of which ``end`` returns
    nothing: ``tally`` holds everything the report reads.  ``next_gap[q]``
    gives queue q's inter-arrival gaps (empty at a zero rate).  The run ends at
    ``duration_us``, which the caller checked with ``check_duration``, so
    the warmup mark at ``WARMUP_FRAC`` of it fires first and the measured
    window is positive.

    The heap (``tally.heap``) holds the next arrival of each empty queue, so
    a pop is an arrival that starts or joins a contention.  It is counted in
    place, as its flush would add no occupancy term, unless the next arrival
    is due at the same instant; an arrival at a backlogged queue is counted
    when that queue is next flushed, at or after it.  ``t_chan`` is the
    channel's pending event: inf while vacant (idle, nothing queued), the
    resolution while contending, the transaction end (including its trailing
    interframe gap) while busy.  A join that brings the resolution forward
    overwrites it, so a superseded resolution never fires.  The inner loop
    runs the channel's events while each comes strictly before the next
    arrival and no later than ``stop``, as no event can come between them: an
    arrival at the same instant goes first, and a flush counts the arrivals
    due at its instant.  ``stop`` is the one stop time: the warmup mark until
    the snapshot, then the duration.  The first event past the mark takes the
    snapshot and the first past the duration ends the run, so an event at
    exactly either runs first.  While every queue is backlogged the heap
    holds only its sentinel, so a ``stretch`` runs the channel, and takes the
    snapshot if the mark falls inside it, until a queue empties, where the
    loop starts the next contention, or past the duration, where the run
    ends."""
    qstat, backlogged, heap = tally.q, tally.backlogged, tally.heap
    nq = len(qstat)
    inf = math.inf
    for q, (qs, gap) in enumerate(zip(qstat, next_gap)):
        qs.gap, qs.next = gap, gap()
        heap.append((qs.next, q))
    heapq.heapify(heap)
    pop = heapq.heappop

    t_chan, busy, stop = inf, False, WARMUP_FRAC * duration_us
    while True:
        while t_chan < heap[0][0] and t_chan <= stop:  # the channel's event comes first
            now = t_chan
            if not busy:  # the resolution
                busy = True
                t_chan = now + resolve()
                continue
            busy = False
            end(now)
            if stretch is not None and len(backlogged) == nq:
                now = stretch(now, stop if tally.snap is None else inf, duration_us)
                if now is None:  # an event passed the duration: with every queue
                    break  # backlogged, the heap's sentinel ends the run below
                if tally.snap is not None:
                    stop = duration_us
            # the trailing interframe gap elapsed inside the transaction
            t_chan = start(now) if backlogged else inf

        now, q = heap[0]
        if now > stop:  # the next event passes the mark (snapshot) or the duration (the end)
            if tally.snap is not None:
                break
            tally.snapshot(stop)
            stop = duration_us
            continue
        pop(heap)  # an arrival at an empty queue, counted in place
        qs = qstat[q]
        qs.arrivals += 1
        qs.backlog, qs.last_t = 1, now
        qs.next = a = now + qs.gap()
        if a <= now:  # the next arrival is due now too
            qs.flush(now)
        backlogged.add(q)
        if t_chan == inf:
            t_chan = start(now)
        elif not busy:
            t_res = join(q, now)
            if t_res is not None:
                t_chan = t_res
        # while the channel is busy the queue just backlogs

    tally.flush(duration_us)
    return _build_report(scheme, config, lambda_pps, tally, duration_us)


def _batch_rows(h: np.ndarray, u: np.ndarray, base_of: np.ndarray,
                p_even_of: np.ndarray, air_of: np.ndarray, difs: float) -> tuple:
    """Full-backlog contentions of the opportunistic MAC worked out from
    their draws.  Row b of ``h`` holds one contention's n pair states and row
    b of ``u`` its 2n timer draws, in the order the per-queue pass of
    ``start`` takes them.  Returns five columns, entry b for row b: the
    earliest slot; the queues reaching it, ascending; whether it collides
    (an STA queue is among two or more at the earliest slot); the busy time
    of ``resolve``'s collision rule, max air time of the colliders +
    ``difs``, if it collides, else None; and the winner's pair state if one
    queue reaches the earliest slot alone, else None."""
    k = base_of[h].repeat(2, axis=1) + (u >= p_even_of)
    k_min = k.min(axis=1)
    at_min = k == k_min[:, None]
    row, q = np.nonzero(at_min)  # row-major: q ascends in a row
    count = np.bincount(row, minlength=len(h))
    ends = np.cumsum(count).tolist()
    q = q.tolist()
    firsts = [q[a:b] for a, b in zip([0] + ends, ends)]
    collide = (count > 1) & at_min[:, 1::2].any(axis=1)
    pair_at_min = at_min[:, ::2] | at_min[:, 1::2]
    busy = np.where(pair_at_min, air_of[h], -np.inf).max(axis=1) + difs
    lone_state = h[np.arange(len(h)), at_min.argmax(axis=1) >> 1]
    return (k_min.tolist(), firsts, collide.tolist(),
            np.where(collide, busy, None).tolist(),
            np.where(count == 1, lone_state, None).tolist())


def run_opportunistic(lambda_pps: float, config: SystemConfig, policy: TimerPolicy,
                      timing: MacTiming, space: ChannelSpace,
                      duration_us: float) -> SimReport:
    """Simulate the opportunistic MAC at ``lambda_pps`` packets/s per queue
    for ``duration_us`` of simulated time."""
    check_rate(lambda_pps)
    check_duration(duration_us)
    config.resolve_pi(space)  # checks the pi and PER lengths
    n = config.n_stations
    nq = 2 * n  # queue 2i = AP side of pair i, queue 2i+1 = STA side
    delta = policy.delta_us
    lam_us = lambda_pps * 1e-6
    per = [float(e) for e in config.per_state_per]
    states = range(space.num_states)
    base = [policy.base_slot(h) for h in states]
    p_even = (policy.p, 1.0 - policy.p)  # indexed by q & 1: AP side, STA side
    tx_us = [timing.per_state_tx_us[h] for h in states]  # data + SIFS + ACK + trailing DIFS
    air_us = [timing.data_airtime(h) for h in states]
    difs = timing.difs_us

    arr_rngs, (chan_rng, timer_rng, per_rng, pick_rng, _) = _rng_streams(config.seed, nq)
    state_draws = _state_draws(config, space, chan_rng)
    timer_draws = _Draws(timer_rng.random, DRAW_BLOCK)
    next_state, next_timer_u = state_draws.next, timer_draws.next
    next_coin = _Draws(per_rng.random, DRAW_BLOCK).next
    next_gap = [_gap_draws(r, 1.0 / lam_us) for r in arr_rngs] if lam_us > 0.0 else []
    base_of, air_of = np.array(base), np.array(air_us)
    p_even_of = np.tile(p_even, n)  # indexed by queue

    tally = _Tally([f"{side}{i}" for i in range(n) for side in (AP, STA)],
                   range(0, nq, 2), space.num_states, config.retry_limit)
    backlogged = tally.backlogged
    tau = 0.0
    pair_state: list = [None] * n
    k_star, first = 0, []  # earliest expiry slot; the queues reaching it, ascending
    attempted, won_state, ok = [], None, False  # outcome of the last resolution

    def start(t: float) -> float:
        nonlocal tau, k_star, first, pair_state
        tau = t
        pair_state = [None] * n  # a joiner of another pair draws its own state
        if len(backlogged) == 1:
            # a lone contender: the pass's two draws, without the pass
            q, = backlogged
            h = pair_state[q >> 1] = next_state()
            k_star = base[h] if next_timer_u() < p_even[q & 1] else base[h] + 1
            first = [q]  # fresh: join inserts into it
            return tau + k_star * delta
        k_star, first = math.inf, []
        for q in sorted(backlogged):
            h = pair_state[q >> 1]
            if h is None:
                h = pair_state[q >> 1] = next_state()
            k = base[h] if next_timer_u() < p_even[q & 1] else base[h] + 1
            if k < k_star:
                k_star, first = k, [q]
            elif k == k_star:
                first.append(q)
        if not first:
            raise InvariantError("contention started with no backlogged queue")
        return tau + k_star * delta

    def join(q: int, t: float) -> float | None:
        nonlocal k_star, first
        m = max(1, math.ceil((t - tau) / delta - 1e-9))
        if m > k_star:
            return None
        h = pair_state[q >> 1]
        if h is None:
            h = pair_state[q >> 1] = next_state()
        k = m + (base[h] if next_timer_u() < p_even[q & 1] else base[h] + 1)
        if k < k_star:
            k_star, first = k, [q]
            return tau + k_star * delta
        if k == k_star:
            insort(first, q)
        return None

    def resolve() -> float:
        nonlocal attempted, won_state, ok
        if len(first) == 1:
            # a lone expiry wins without a pick (integers(1) would return 0
            # and draw nothing)
            attempted = first
        else:
            ap_exp = [q for q in first if not q & 1]
            if len(ap_exp) < len(first):
                # an STA expiry among two or more collides; the channel is
                # blocked for the longest colliding frame.  The colliders
                # drew good states, so this is usually far shorter than the
                # analysis' conservative lowest-rate constant.
                attempted, ok = first, False
                return max(air_us[pair_state[q >> 1]] for q in first) + difs
            # AP expiries alone merge by a uniform pick
            attempted = [ap_exp[int(pick_rng.integers(len(ap_exp)))]]
            tally.ap_merges += 1
        won_state = pair_state[attempted[0] >> 1]
        ok = next_coin() >= per[won_state]
        return tx_us[won_state]

    def end(t: float) -> None:
        if ok:
            tally.deliver(attempted[0], t, won_state)
        elif len(attempted) > 1:
            tally.collide(attempted, t)
        else:
            tally.fail(attempted[0], t)

    def stretch(t: float, mark: float, stop: float) -> float | None:
        # each contention takes the next batch row: the draws of the
        # per-queue pass, in its order.  The rows are only peeked: row b
        # starts b * n states and b * nq timers past the draws the streams
        # have served, and the streams skip the rows taken as the next batch
        # is read and as the stretch ends.
        nonlocal first, pair_state
        slots, taken, window = (), 0, BATCH_FIRST
        cut = min(mark, stop)  # the warmup mark until the snapshot, then the duration
        while True:
            if taken == len(slots):  # the rows ran out: read the next batch
                state_draws.skip(taken * n)
                timer_draws.skip(taken * nq)
                h_rows = state_draws.peek(window * n).reshape(window, n)
                slots, firsts, collides, busies, lone_states = _batch_rows(
                    h_rows, timer_draws.peek(window * nq).reshape(window, nq),
                    base_of, p_even_of, air_of, difs)
                taken, window = 0, min(2 * window, BATCH)
            b = taken
            taken += 1
            t += slots[b] * delta  # the resolution
            h = lone_states[b]
            if h is not None:
                won = next_coin() >= per[h]
                t += tx_us[h]
            elif collides[b]:
                t += busies[b]
            elif t <= stop:  # AP expiries alone: resolve picks one
                first, pair_state = firsts[b], h_rows[b].tolist()
                t += resolve()
            if t > cut:  # the end, or a merge's resolution past stop, passes the mark or stop
                if cut < stop:
                    tally.snapshot(cut)
                    cut = stop
                if t > stop:
                    return None
            if h is not None:
                if won:
                    tally.deliver(firsts[b][0], t, h)
                else:
                    tally.fail(firsts[b][0], t)
            elif collides[b]:
                tally.collide(firsts[b], t)
            else:
                end(t)
            if len(backlogged) < nq:  # a queue emptied: the stretch is over
                state_draws.skip(taken * n)
                timer_draws.skip(taken * nq)
                return t

    return _run("opportunistic", config, lambda_pps, tally, next_gap, start, join,
                resolve, end, duration_us, stretch)


def _build_report(scheme, config, lambda_pps, tally, final_t) -> SimReport:
    snap = tally.snap
    measured = final_t - snap["t"]
    meas_s = measured * 1e-6
    queues = {}
    for name, qs, before in zip(tally.names, tally.q, snap["delivered"]):
        if qs.arrivals != qs.delivered + qs.dropped + qs.backlog:
            raise InvariantError(
                f"queue {name} breaks conservation: {qs.arrivals} arrivals "
                f"!= {qs.delivered} delivered + {qs.dropped} dropped "
                f"+ {qs.backlog} backlog")
        dmeas = qs.delivered - before
        queues[name] = {
            "arrivals": qs.arrivals,
            "delivered": qs.delivered,
            "dropped": qs.dropped,
            "backlog": qs.backlog,
            "delivered_measured": dmeas,
            "throughput_pps": dmeas / meas_s,
        }
    rows = list(queues.values())
    occ = [(qs.occ_us - before) / measured for qs, before in zip(tally.q, snap["occ"])]
    sides = {AP: tally.ap_ids, STA: [q for q in range(len(rows)) if q not in tally.ap_ids]}
    down, up = (sum(rows[q]["throughput_pps"] for q in ids) for ids in sides.values())
    p_a, p_s = (sum(occ[q] for q in ids) / len(ids) for ids in sides.values())
    side_counts = {side: sum(rows[q]["delivered_measured"] for q in ids)
                   for side, ids in sides.items()}
    n_renew = side_counts[AP] + side_counts[STA]
    mean_renewal = None
    if n_renew >= 1 and snap["last_success_t"] is not None:
        mean_renewal = (tally.last_success_t - snap["last_success_t"]) / n_renew
    elif n_renew >= 2 and tally.first_after_snap is not None:
        mean_renewal = ((tally.last_success_t - tally.first_after_snap)
                        / (n_renew - 1))
    return SimReport(
        scheme=scheme,
        n_stations=config.n_stations,
        lambda_pps=lambda_pps,
        seed=config.seed,
        retry_limit=config.retry_limit,
        duration_us=final_t,
        measured_us=measured,
        warmup_us=snap["t"],
        queues=queues,
        uplink_pps=up,
        downlink_pps=down,
        system_pps=up + down,
        collisions=tally.collisions - snap["collisions"],
        collisions_total=tally.collisions,
        p_a_hat=p_a,
        p_s_hat=p_s,
        renewal_count=n_renew,
        mean_renewal_us=mean_renewal,
        winner_state_counts=[a - b for a, b in
                             zip(tally.winner_states, snap["winner_states"])],
        winner_side_counts=side_counts,
        ap_internal_merges=tally.ap_merges,
        dropped_total=sum(qs.dropped for qs in tally.q),
    )


CW_MIN = 15
CW_MAX = 1023
ARF_UP_STREAK = 10
ARF_DOWN_STREAK = 2


class _ArfState:
    __slots__ = ("rate", "succ", "fail")

    def __init__(self):
        self.rate = 0  # ARF starts at the lowest PHY rate
        self.succ = 0
        self.fail = 0

    def on_success(self, max_rate: int) -> None:
        self.succ += 1
        self.fail = 0
        if self.succ >= ARF_UP_STREAK and self.rate < max_rate:
            self.rate += 1
            self.succ = 0

    def on_failure(self) -> None:
        self.fail += 1
        self.succ = 0
        if self.fail >= ARF_DOWN_STREAK:
            self.rate = max(0, self.rate - 1)
            self.fail = 0


def run_dcf(lambda_pps: float, config: SystemConfig, timing: MacTiming,
            space: ChannelSpace, rate_adaptation: str,
            duration_us: float) -> SimReport:
    """802.11 DCF baseline at ``lambda_pps`` packets/s per STA queue and N
    times that at the one aggregate AP queue, for ``duration_us`` of simulated
    time: binary exponential backoff (CW 15..1023), per-attempt rate
    adaptation.

    "threshold" picks the quantization-table rate for the channel state the
    link showed on its previous exchange; with fading that decorrelates
    between exchanges this knowledge is one coherence interval stale, unlike
    the opportunistic MAC whose timer encodes the current state.  "arf"
    climbs after 10 straight successes and falls back after 2 failures.
    """
    if rate_adaptation not in ("arf", "threshold"):
        raise ParameterError("rate_adaptation must be 'arf' or 'threshold'")
    check_rate(lambda_pps)
    check_duration(duration_us)
    config.resolve_pi(space)  # checks the pi and PER lengths
    use_arf = rate_adaptation == "arf"
    n = config.n_stations
    ns = n + 1  # station 0 = AP
    delta = timing.slot_us
    difs, sifs_ack = timing.difs_us, timing.sifs_us + timing.ack_us
    eifs = difs + sifs_ack
    top_rate = space.num_states - 1
    lam_us = lambda_pps * 1e-6

    arr_rngs, (chan_rng, back_rng, per_rng, _pick, dest_rng) = _rng_streams(
        config.seed, ns)
    next_state = _state_draws(config, space, chan_rng).next
    next_coin = _Draws(per_rng.random, DRAW_BLOCK).next
    next_dest = _Draws(partial(dest_rng.integers, n), DRAW_BLOCK).next
    next_backoff = _backoff_draws(back_rng)
    per = [float(e) for e in config.per_state_per]
    airtime = [timing.data_airtime(s) for s in range(space.num_states)]
    next_gap = []
    if lam_us > 0.0:
        next_gap = [_gap_draws(arr_rngs[0], 1.0 / (n * lam_us))]
        next_gap += [_gap_draws(r, 1.0 / lam_us) for r in arr_rngs[1:]]

    tally = _Tally([AP] + [f"{STA}{i}" for i in range(n)], [0], space.num_states,
                   config.retry_limit)
    backlogged = tally.backlogged
    # destination of the AP's head packet, drawn at its first attempt (while
    # its retry count is 0); the queue is FIFO, so the k-th head packet takes
    # the stream's k-th draw
    ap_dest, ap_queue = 0, tally.q[0]
    # link id: uplink of station i is i, downlink to station i is n + i
    arf = [_ArfState() for _ in range(2 * n)]
    last_seen = [0] * (2 * n)  # latest observed state per link
    cw = [CW_MIN] * ns
    # idle clock value at which each backoff counter expires: None until
    # drawn and again after each attempt; only a backlogged station holds
    # one.  The clock counts the slots all contentions so far left idle.
    expiry: list = [None] * ns
    clock = soonest = 0  # soonest: the earliest held expiry
    expiring = []  # the stations holding soonest, ascending
    idle_t0 = 0.0  # instant the clock last advanced to
    # outcome of the last resolution: the lone attempt's station, link and
    # rate index, whether it got through, and each failed (station, link)
    won = won_link = won_rate = 0
    ok, failed = False, ()

    def start(t: float) -> float:
        nonlocal idle_t0, soonest, expiring
        # frozen counters resume; fresh ones are drawn in station order
        if len(backlogged) == 1:  # a lone contender, without the pass
            st, = backlogged
            e = expiry[st]
            if e is None:
                e = expiry[st] = clock + next_backoff(cw[st])
            idle_t0, soonest, expiring = t, e, [st]
            return t + (e - clock) * delta
        idle_t0, soonest, expiring = t, math.inf, []
        for st in sorted(backlogged):
            e = expiry[st]
            if e is None:
                e = expiry[st] = clock + next_backoff(cw[st])
            if e < soonest:
                soonest, expiring = e, [st]
            elif e == soonest:
                expiring.append(st)
        return idle_t0 + (soonest - clock) * delta

    def join(st: int, t: float) -> float | None:
        nonlocal idle_t0, clock, soonest, expiring
        # slack absorbs float error of the t0 + k*delta event times
        elapsed = int(math.floor((t - idle_t0) / delta + 1e-7))
        if elapsed > 0:
            clock += elapsed
            idle_t0 += elapsed * delta
        if soonest < clock:
            raise InvariantError("a backoff counter fell behind the idle clock")
        k = next_backoff(cw[st])
        if t > idle_t0:
            k += 1  # mid-slot joiner starts at the next boundary
        e = expiry[st] = clock + k
        if e < soonest:
            soonest, expiring = e, [st]
            return idle_t0 + k * delta
        if e == soonest:
            insort(expiring, st)
        return None

    def attempt(st: int) -> tuple:
        """Station st transmits: (st, link, the link's state, the rate index
        it sends at), drawing the AP head's destination at its first attempt
        and then the state."""
        nonlocal ap_dest
        if st == 0:
            if not ap_queue.retry:
                ap_dest = next_dest()
            link = n + ap_dest
        else:
            link = st - 1
        h = next_state()
        ridx = arf[link].rate if use_arf else last_seen[link]
        last_seen[link] = h  # known by the time of the next attempt
        expiry[st] = None  # fresh backoff after this attempt
        return st, link, h, ridx

    def resolve() -> float:
        nonlocal won, won_link, won_rate, ok, failed, clock
        clock = soonest  # the resolution fires at the slot it was scheduled for
        if len(expiring) > 1:
            attempts = [attempt(st) for st in expiring]
            ok, failed = False, [a[:2] for a in attempts]
            return max(airtime[a[3]] for a in attempts) + eifs
        won, won_link, h, won_rate = attempt(expiring[0])
        ok = next_coin() >= (per[won_rate] if h >= won_rate else 1.0)
        failed = () if ok else ((won, won_link),)
        # + ACK (or its timeout) + trailing DIFS / EIFS
        return airtime[won_rate] + sifs_ack + (difs if ok else eifs)

    def end(t: float) -> None:
        if ok:
            tally.deliver(won, t, won_rate)
            cw[won] = CW_MIN
            if use_arf:
                arf[won_link].on_success(top_rate)
            return
        if len(failed) > 1:
            tally.collisions += 1
        for st, link in failed:
            # a drop resets the window, as a delivery does
            cw[st] = CW_MIN if tally.fail(st, t) else min(2 * cw[st] + 1, CW_MAX)
            if use_arf:
                arf[link].on_failure()

    return _run(f"dcf-{rate_adaptation}", config, lambda_pps, tally, next_gap,
                start, join, resolve, end, duration_us)
