"""Discrete-event WLAN simulators: one event loop, two MAC policies.

``run_opportunistic`` implements the channel-keyed per-pair backoff MAC:
every nonempty queue sets a timer at the start of a contention period, the
two queues of a pair share one channel state per period (reciprocity),
simultaneous expiries among AP queues are merged by a uniform pick, and any
simultaneity involving an STA queue collides.  ``run_dcf`` is the 802.11
DCF baseline with one aggregate AP queue, binary exponential backoff, and
either ARF or threshold-based rate adaptation.

Both run on ``_run``, which owns the event clock, the channel phase
(vacant, contention, busy), the warmup mark, the stop at the run's duration
and the report.  Only arrivals are heap entries: the channel's one pending
event (a resolution or a transaction end) and the warmup mark are scalars, so
no resolution goes stale.  At one instant arrivals (lower queue first) precede
the channel event, which precedes the mark.  A MAC is four hooks:

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

Each DCF contention, and each opportunistic one with some queue empty, is
one pass over the backlogged queues: the opportunistic MAC keeps a running
minimum of its timers, and DCF stores each backoff counter as the slot of a
virtual idle clock at which it expires.  Both keep the queues that reach the
minimum, so a resolution reads its contenders without a scan.  An
opportunistic contention with every queue backlogged, which no queue can
join, is one row of a numpy batch computed from the channel-state and timer
draws read ahead of their streams; it takes the draws the pass would.

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
# is amortised and that one block holds a batch of full contentions' draws at
# N = 15; an arrival stream's block stays small, as there are 2N of them.
DRAW_BLOCK = 1024
ARRIVAL_BLOCK = 16
# Full-backlog contentions the opportunistic MAC reads ahead in one batch.
BATCH = 32


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
                 "last_t", "retry")

    def __init__(self):
        self.arrivals = 0
        self.delivered = 0
        self.dropped = 0
        self.backlog = 0
        self.occ_us = 0.0
        self.last_t = 0.0
        self.retry = 0

    def flush(self, t: float) -> None:
        if self.backlog > 0:
            self.occ_us += t - self.last_t
        self.last_t = t


class _Tally:
    """The one record of a run: the queues' names and sides, their counters
    and the bookkeeping both MACs share, plus a warmup snapshot for windowed
    metrics.  Success and side counts are sums of the per-queue deliveries."""

    def __init__(self, names: list, ap_ids, num_states: int, retry_limit: int | None):
        self.names = names
        self.ap_ids = ap_ids  # the AP-side queues, ascending
        self.q = [_QueueStat() for _ in names]
        self.retry_limit = retry_limit
        self.backlogged: set[int] = set()  # queues with backlog > 0
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
        """Queue q's head packet got through in (rate) state ``state``."""
        self.q[q].delivered += 1
        self._pop_head(q, t)
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
        qs.dropped += 1
        self._pop_head(q, t)
        return True

    def _pop_head(self, q: int, t: float) -> None:
        qs = self.q[q]
        qs.flush(t)
        qs.backlog -= 1
        qs.retry = 0
        if not qs.backlog:
            self.backlogged.discard(q)

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
    them, and ``skip(m)`` consumes m.  numpy returns the same values, in the
    same order, for k draws in one call as for k scalar calls, so while
    nothing else draws from the generator behind ``draw``, any interleaving
    of the three gives its scalar stream."""

    def __init__(self, draw, size: int):
        self._draw, self._size = draw, size
        self._ahead = deque()  # blocks drawn for a peek and not yet served
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
        parts = [self._block[len(self._block) - length_hint(self._left):], *self._ahead]
        have = sum(map(len, parts))
        while have < m:
            parts.append(self._draw(size=self._size))
            self._ahead.append(parts[-1])
            have += self._size
        return np.concatenate(parts)[:m]

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
         next_gap: list, start, join, resolve, end, duration_us: float) -> SimReport:
    """The event loop both MACs share; the MAC is the four hooks (see the
    module docstring), of which ``end`` returns nothing: ``tally`` holds
    everything the report reads.  ``next_gap[q]`` gives queue q's
    inter-arrival gaps (empty at a zero rate).  The run ends at
    ``duration_us``, which the caller checked with ``check_duration``, so
    the warmup mark at ``WARMUP_FRAC`` of it fires first and the measured
    window is positive.

    The heap holds one ``(time_us, queue)`` entry per queue, its next
    arrival, advanced by one ``heapreplace`` per arrival.  ``t_chan`` is the
    channel's pending event: inf while vacant (idle, nothing queued), the
    resolution while contending, the transaction end (including its trailing
    interframe gap) while busy.  A join that brings the resolution forward
    overwrites it, so a superseded resolution never fires.  ``t_mark`` is
    the warmup mark.  Ties go to the arrival, then the channel event."""
    qstat, backlogged = tally.q, tally.backlogged
    inf = math.inf
    heap = [(gap(), q) for q, gap in enumerate(next_gap)] or [(inf, -1)]
    heapq.heapify(heap)
    advance = heapq.heapreplace

    t_chan, busy, t_mark = inf, False, WARMUP_FRAC * duration_us
    while True:
        now, q = heap[0]
        if now <= t_chan and now <= t_mark:
            if now > duration_us:
                break
            qs = qstat[q]
            qs.flush(now)
            qs.arrivals += 1
            qs.backlog += 1
            advance(heap, (now + next_gap[q](), q))
            if qs.backlog == 1:
                backlogged.add(q)
                if t_chan == inf:
                    t_chan = start(now)
                elif not busy:
                    t_res = join(q, now)
                    if t_res is not None:
                        t_chan = t_res
                # while the channel is busy the queue just backlogs

        elif t_chan <= t_mark:
            now = t_chan
            if now > duration_us:
                break
            if not busy:
                busy = True
                t_chan = now + resolve()
                continue
            busy = False
            end(now)
            # the trailing interframe gap elapsed inside the transaction
            t_chan = start(now) if backlogged else inf

        else:  # the mark precedes the end
            tally.snapshot(t_mark)
            t_mark = inf

    tally.flush(duration_us)
    return _build_report(scheme, config, lambda_pps, tally, duration_us)


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
    base_of = np.array(base)
    p_even_of = np.tile(p_even, n)  # indexed by queue

    tally = _Tally([f"{side}{i}" for i in range(n) for side in (AP, STA)],
                   range(0, nq, 2), space.num_states, config.retry_limit)
    backlogged = tally.backlogged
    tau = 0.0
    pair_state: list = [None] * n
    k_star, first = 0, []  # earliest expiry slot; the queues reaching it, ascending
    # full-backlog contentions read ahead of the state and timer streams,
    # last first, and how many were taken whose draws the streams still hold
    rows, taken = [], 0
    attempted, won_state, ok = [], None, False  # outcome of the last resolution

    def read_rows() -> list:
        """The next BATCH full-backlog contentions as the per-queue pass of
        ``start`` would draw them, last first: each row's pair states, its
        earliest slot and the queues reaching it, ascending.  Nothing is
        consumed: row b starts b * n states and b * nq timers ahead."""
        h = state_draws.peek(BATCH * n).reshape(BATCH, n)
        u = timer_draws.peek(BATCH * nq).reshape(BATCH, nq)
        k = base_of[h].repeat(2, axis=1) + (u >= p_even_of)
        k_min = k.min(axis=1)
        row, q = np.nonzero(k == k_min[:, None])  # row-major: q ascends in a row
        ends = np.cumsum(np.bincount(row, minlength=BATCH)).tolist()
        q = q.tolist()
        firsts = [q[a:b] for a, b in zip([0] + ends, ends)]
        return list(zip(h.tolist(), k_min.tolist(), firsts))[::-1]

    def start(t: float) -> float:
        nonlocal tau, k_star, first, pair_state, rows, taken
        tau = t
        full = len(backlogged) == nq
        if taken and not (full and rows):
            # the streams move past the rows taken before anything else reads
            # them; the rows left over are dropped
            state_draws.skip(taken * n)
            timer_draws.skip(taken * nq)
            rows, taken = [], 0
        if full:
            # no queue can join, so the contention takes exactly one row's
            # draws, in the order the per-queue pass would take them
            if not rows:
                rows = read_rows()
            pair_state, k_star, first = rows.pop()
            taken += 1
            return tau + k_star * delta
        k_star, first = math.inf, []
        pair_state = [None] * n
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
        ap_exp = [q for q in first if not q & 1]
        if len(ap_exp) == len(first) or len(first) == 1:
            # AP expiries alone merge by a uniform pick; a lone queue wins
            # without one (integers(1) would return 0 and draw nothing)
            if len(ap_exp) > 1:
                winner = ap_exp[int(pick_rng.integers(len(ap_exp)))]
                tally.ap_merges += 1
            else:
                winner = first[0]
            attempted = [winner]
            won_state = pair_state[winner >> 1]
            ok = next_coin() >= per[won_state]
            return tx_us[won_state]
        # an STA expiry among two or more collides; the channel is blocked
        # for the longest colliding frame.  The colliders drew good states,
        # so this is usually far shorter than the analysis' conservative
        # lowest-rate constant.
        attempted, ok = first, False
        return max(air_us[pair_state[q >> 1]] for q in first) + difs

    def end(t: float) -> None:
        if ok:
            tally.deliver(attempted[0], t, won_state)
            return
        if len(attempted) > 1:
            tally.collisions += 1
        for q in attempted:
            tally.fail(q, t)

    return _run("opportunistic", config, lambda_pps, tally, next_gap, start, join,
                resolve, end, duration_us)


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
    # destination of the AP's head packet, drawn at its first attempt; the
    # queue is FIFO, so the k-th head packet takes the stream's k-th draw
    ap_dest = None
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
    attempts, ok = [], False  # outcome of the last resolution

    def start(t: float) -> float:
        nonlocal idle_t0, soonest, expiring
        # frozen counters resume; fresh ones are drawn in station order
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

    def resolve() -> float:
        nonlocal ap_dest, attempts, ok, clock
        clock = soonest  # the resolution fires at the slot it was scheduled for
        attempts = []
        for st in expiring:
            if st == 0:
                if ap_dest is None:
                    ap_dest = next_dest()
                link = n + ap_dest
            else:
                link = st - 1
            h = next_state()
            ridx = arf[link].rate if use_arf else last_seen[link]
            last_seen[link] = h  # known by the time of the next attempt
            attempts.append((st, link, h, ridx))
            expiry[st] = None  # fresh backoff after this attempt
        busy = max(airtime[r] for _, _, _, r in attempts)
        if len(attempts) > 1:
            ok = False
            return busy + eifs
        _, _, h, ridx = attempts[0]
        # + ACK (or its timeout) + trailing DIFS / EIFS
        busy += sifs_ack
        ok = next_coin() >= (per[ridx] if h >= ridx else 1.0)
        return busy + (difs if ok else eifs)

    def end(t: float) -> None:
        nonlocal ap_dest
        if len(attempts) > 1:
            tally.collisions += 1
        for st, link, _h, ridx in attempts:
            if ok:
                tally.deliver(st, t, ridx)
            if ok or tally.fail(st, t):  # the head packet left the queue
                cw[st] = CW_MIN
                if st == 0:
                    ap_dest = None
            else:
                cw[st] = min(2 * cw[st] + 1, CW_MAX)
            if use_arf:
                if ok:
                    arf[link].on_success(top_rate)
                else:
                    arf[link].on_failure()

    return _run(f"dcf-{rate_adaptation}", config, lambda_pps, tally, next_gap,
                start, join, resolve, end, duration_us)
