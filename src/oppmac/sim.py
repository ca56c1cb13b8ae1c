"""Discrete-event WLAN simulators.

``run_opportunistic`` implements the channel-keyed per-pair backoff MAC:
every nonempty queue sets a timer at the start of a contention period, the
two queues of a pair share one channel state per period (reciprocity),
simultaneous expiries among AP queues are merged by a uniform pick, and any
simultaneity involving an STA queue collides.  ``run_dcf`` is the 802.11
DCF baseline with one aggregate AP queue, binary exponential backoff, and
either ARF or threshold-based rate adaptation.

Both engines are event driven (arrivals, contention resolutions, busy-period
ends) and strictly deterministic for a given (config, seed): every random
stream has its own generator, whose draws may be served from blocks but are
never reordered.  A transmission transaction spans the frame, its
acknowledgment, and the trailing interframe gap; queue state changes are
applied when the transaction completes, so a queue counts as occupied for
exactly the per-attempt duration the analytical model charges it.  Renewal
instants shift by the same constant for every success, leaving
renewal-length statistics unchanged.
"""

from __future__ import annotations

import heapq
import json
import math
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat

import numpy as np

from .core import (
    AP,
    STA,
    ChannelSpace,
    MacTiming,
    ParameterError,
    SystemConfig,
    TimerPolicy,
)

# Heap entries are (time_us, rank, tag) tuples, so ties break on the kind
# rank, then the tag: the queue of an arrival, the epoch of a resolution, -1
# otherwise.  A queue has at most one pending arrival, and at most one END and
# one MARK are ever pending, so no two entries compare equal.
EV_ARRIVAL = 0
EV_END = 1     # transaction (frame + ACK + trailing gap) ends; outcome applied
EV_RESOLVE = 2
EV_MARK = 3

# Draws per block: small enough that the 2N arrival streams' blocks add no
# measurable memory, large enough that the numpy call per block is amortised.
DRAW_BLOCK = 64
ARRIVAL_BLOCK = 16


class InvariantError(RuntimeError):
    """An internal simulator invariant failed (a bug, not a bad input)."""


@dataclass
class SimReport:
    """Run metrics.  Conservation counters cover the whole run; rates,
    occupancy fractions, and event counts cover the post-warmup window."""

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

    @classmethod
    def from_json(cls, text: str) -> "SimReport":
        data = json.loads(text)
        data.pop("_meta", None)
        return cls(**data)


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
    """Cumulative counters plus a warmup snapshot for windowed metrics."""

    def __init__(self, n_queues: int, num_states: int):
        self.q = [_QueueStat() for _ in range(n_queues)]
        self.collisions = 0
        self.successes = 0
        self.last_success_t = None
        self.first_after_snap = None
        self.winner_states = [0] * num_states
        self.winner_sides = {AP: 0, STA: 0}
        self.snap = None

    def flush(self, t: float) -> None:
        for qs in self.q:
            qs.flush(t)

    def on_success(self, t: float, state: int, side: str) -> None:
        self.successes += 1
        self.last_success_t = t
        self.winner_states[state] += 1
        self.winner_sides[side] += 1
        if self.snap is not None and self.first_after_snap is None:
            self.first_after_snap = t

    def snapshot(self, t: float) -> None:
        self.flush(t)
        self.first_after_snap = None
        self.snap = {
            "t": t,
            "delivered": [qs.delivered for qs in self.q],
            "occ": [qs.occ_us for qs in self.q],
            "collisions": self.collisions,
            "successes": self.successes,
            "last_success_t": self.last_success_t,
            "winner_states": list(self.winner_states),
            "winner_sides": dict(self.winner_sides),
        }


def _rng_streams(seed: int, n_arrival_streams: int):
    """Independent deterministic generators: one per arrival process plus
    named streams (channel, timer/backoff, error coin, pick, destination)."""
    children = np.random.SeedSequence(seed).spawn(n_arrival_streams + 5)
    gens = [np.random.Generator(np.random.PCG64(s)) for s in children]
    return gens[:n_arrival_streams], gens[n_arrival_streams:]


def _blocks(draw, size: int):
    """Endless iterator of Python scalars, drawn ``size`` at a time by
    ``draw(size=size)``.  numpy returns the same values, in the same order,
    for k draws in one call as for k scalar calls, so while nothing else
    draws from the generator behind ``draw`` this is its scalar stream."""
    return chain.from_iterable(draw(size=size).tolist() for _ in repeat(None))


def _state_draws(config: SystemConfig, space: ChannelSpace, rng,
                 size: int = DRAW_BLOCK):
    """Endless iterator of channel states, explicit distribution or Rayleigh
    quantized, each block quantized by one ``searchsorted``."""
    if config.pi is not None:
        cum = np.cumsum(np.asarray(config.pi, dtype=float))
        top = len(cum) - 1  # guards the ~1-ulp shortfall of the last cumsum

        def draw(size):
            return np.minimum(np.searchsorted(cum, rng.random(size), side="right"), top)
    else:
        mean_lin = 10.0 ** (config.mean_ebn0_db / 10.0)
        edges = space.thresholds_linear()[1:]

        def draw(size):
            return np.searchsorted(edges, rng.exponential(mean_lin, size), side="right")
    return _blocks(draw, size)


def _gap_draws(rng, mean_us: float):
    """Zero-argument callable giving the successive inter-arrival gaps of one
    Poisson stream with the given mean."""
    return _blocks(partial(rng.exponential, mean_us), ARRIVAL_BLOCK).__next__


def run_opportunistic(config: SystemConfig, policy: TimerPolicy,
                      timing: MacTiming, space: ChannelSpace,
                      duration_us: float | None = None,
                      max_renewals: int | None = None,
                      warmup_frac: float = 0.05,
                      trace_path=None) -> SimReport:
    """Simulate the opportunistic MAC for a wall-clock duration and/or a
    renewal budget (at least one must be given)."""
    if duration_us is None and max_renewals is None:
        raise ParameterError("provide duration_us and/or max_renewals")
    if config.lambda_pps == 0.0 and duration_us is None:
        raise ParameterError("a renewal budget alone cannot bound a zero-rate run")
    n = config.n_stations
    nq = 2 * n  # queue 2i = AP side of pair i, queue 2i+1 = STA side
    delta = policy.delta_us
    lam_us = config.lambda_pps * 1e-6
    per = [float(e) for e in config.per_state_per]
    if len(per) != space.num_states:
        raise ParameterError("PER vector length does not match channel space")
    states = range(space.num_states)
    base = [policy.base_slot(h) for h in states]
    p_even = (policy.p, 1.0 - policy.p)  # indexed by q & 1: AP side, STA side
    tx_us = [timing.t_suc(h) for h in states]  # data + SIFS + ACK + trailing DIFS
    air_us = [timing.data_airtime(h) for h in states]
    difs = timing.difs_us

    arr_rngs, (chan_rng, timer_rng, per_rng, pick_rng, _) = _rng_streams(config.seed, nq)
    next_state = _state_draws(config, space, chan_rng).__next__
    next_timer_u = _blocks(timer_rng.random, DRAW_BLOCK).__next__
    next_coin = _blocks(per_rng.random, DRAW_BLOCK).__next__

    tally = _Tally(nq, space.num_states)
    qstat = tally.q
    backlogged: set[int] = set()  # queues with backlog > 0
    heap: list[tuple] = []
    push, pop = heapq.heappush, heapq.heappop

    if lam_us > 0.0:
        next_gap = [_gap_draws(r, 1.0 / lam_us) for r in arr_rngs]
        for q in range(nq):
            push(heap, (next_gap[q](), EV_ARRIVAL, q))

    # phase: vacant (idle, nothing queued), contention, busy (transaction
    # in progress, including its trailing interframe gap)
    phase = "vacant"
    tau = 0.0
    epoch = 0
    timers: dict[int, int] = {}
    pair_state: list = [None] * n
    k_star = 0
    pending_outcome = None

    renewals = 0
    warm_renewal_target = None
    end_time = duration_us if duration_us is not None else math.inf
    if duration_us is not None:
        push(heap, (warmup_frac * duration_us, EV_MARK, -1))
    else:
        warm_renewal_target = max(1, math.ceil(warmup_frac * max_renewals))
    trace_rows = []
    prev_success_t = None
    ap_merges = 0
    stopped_by_budget = False
    now = 0.0

    def timer_slots(q: int) -> int:
        h = pair_state[q >> 1]
        if h is None:
            h = pair_state[q >> 1] = next_state()
        return base[h] if next_timer_u() < p_even[q & 1] else base[h] + 1

    def start_contention(t0: float) -> None:
        nonlocal phase, tau, epoch, k_star
        phase = "contention"
        tau = t0
        timers.clear()
        pair_state[:] = [None] * n
        for q in sorted(backlogged):
            timers[q] = timer_slots(q)
        if not timers:
            raise InvariantError("contention started with no backlogged queue")
        epoch += 1
        k_star = min(timers.values())
        push(heap, (tau + k_star * delta, EV_RESOLVE, epoch))

    def fail_or_drop(q: int, t: float) -> None:
        qs = qstat[q]
        qs.retry += 1
        if config.retry_limit is not None and qs.retry > config.retry_limit:
            qs.flush(t)
            qs.backlog -= 1
            qs.dropped += 1
            qs.retry = 0
            if not qs.backlog:
                backlogged.discard(q)

    while heap:
        now, rank, tag = pop(heap)
        if now > end_time:
            break

        if rank == EV_ARRIVAL:
            q = tag
            qs = qstat[q]
            qs.flush(now)
            qs.arrivals += 1
            qs.backlog += 1
            push(heap, (now + next_gap[q](), EV_ARRIVAL, q))
            if qs.backlog == 1:
                backlogged.add(q)
                if phase == "vacant":
                    start_contention(now)
                elif phase == "contention" and q not in timers:
                    m = max(1, math.ceil((now - tau) / delta - 1e-9))
                    if m <= k_star:
                        timers[q] = m + timer_slots(q)
                        if timers[q] < k_star:
                            k_star = timers[q]
                            epoch += 1
                            push(heap, (tau + k_star * delta, EV_RESOLVE, epoch))
                # while the channel is busy the queue just backlogs

        elif rank == EV_RESOLVE:
            if tag != epoch or phase != "contention":
                continue
            expired = sorted(q for q, e in timers.items() if e == k_star)
            if not expired:
                raise InvariantError("resolution with no expiring timer")
            ap_exp = [q for q in expired if not q & 1]
            if len(ap_exp) == len(expired) or len(expired) == 1:
                # AP expiries alone merge by a uniform pick; a lone STA wins
                if ap_exp:
                    winner = ap_exp[int(pick_rng.integers(len(ap_exp)))]
                    if len(ap_exp) > 1:
                        ap_merges += 1
                else:
                    winner = expired[0]
                h = pair_state[winner >> 1]
                busy = tx_us[h]
                pending_outcome = ("tx", winner, h, next_coin() >= per[h])
            else:
                # an STA expiry among two or more collides; the channel is
                # blocked for the longest colliding frame.  The colliders
                # drew good states, so this is usually far shorter than the
                # analysis' conservative lowest-rate constant.
                busy = max(air_us[pair_state[q >> 1]] for q in expired) + difs
                pending_outcome = ("col", expired, None, False)
            phase = "busy"
            timers.clear()
            push(heap, (now + busy, EV_END, -1))

        elif rank == EV_END:
            kind, who, h, ok = pending_outcome
            pending_outcome = None
            if kind == "tx":
                qs = qstat[who]
                if ok:
                    qs.flush(now)
                    qs.backlog -= 1
                    qs.delivered += 1
                    qs.retry = 0
                    if not qs.backlog:
                        backlogged.discard(who)
                    side = AP if who % 2 == 0 else STA
                    tally.on_success(now, h, side)
                    renewals += 1
                    if trace_path is not None and prev_success_t is not None:
                        trace_rows.append((renewals, now - prev_success_t,
                                           side, h, "success"))
                    prev_success_t = now
                    if warm_renewal_target is not None and renewals == warm_renewal_target:
                        tally.snapshot(now)
                    if max_renewals is not None and renewals >= max_renewals:
                        stopped_by_budget = True
                        break
                else:
                    fail_or_drop(who, now)
            else:
                tally.collisions += 1
                for q in who:
                    fail_or_drop(q, now)
            # the trailing DIFS elapsed inside the transaction
            if backlogged:
                start_contention(now)
            else:
                phase = "vacant"

        else:  # EV_MARK
            tally.snapshot(now)

    final_t = now if stopped_by_budget or duration_us is None else end_time
    if tally.snap is None:
        tally.snapshot(0.0)
    tally.flush(final_t)
    report = _build_report(
        "opportunistic", config, tally, final_t, nq, ap_merges,
        queue_name=lambda q: f"{'ap' if q % 2 == 0 else 'sta'}{q // 2}",
        ap_queue_ids=[q for q in range(nq) if q % 2 == 0])
    if duration_us is not None and report.renewal_count < 1000:
        warnings.warn(f"only {report.renewal_count} renewals in the measurement "
                      "window; estimates may be noisy", stacklevel=2)
    if trace_path is not None:
        with open(trace_path, "w") as fh:
            fh.write("renewal,length_us,winner_side,state,outcome\n")
            for idx, length, side, hh, outcome in trace_rows:
                fh.write(f"{idx},{length!r},{side},{hh},{outcome}\n")
    return report


def _build_report(scheme, config, tally, final_t, nq, ap_merges, queue_name,
                  ap_queue_ids) -> SimReport:
    snap = tally.snap
    measured = final_t - snap["t"]
    meas_s = measured * 1e-6
    queues = {}
    for q in range(nq):
        qs = tally.q[q]
        if qs.arrivals != qs.delivered + qs.dropped + qs.backlog:
            raise InvariantError(
                f"queue {queue_name(q)} breaks conservation: {qs.arrivals} arrivals "
                f"!= {qs.delivered} delivered + {qs.dropped} dropped "
                f"+ {qs.backlog} backlog")
        dmeas = qs.delivered - snap["delivered"][q]
        queues[queue_name(q)] = {
            "arrivals": qs.arrivals,
            "delivered": qs.delivered,
            "dropped": qs.dropped,
            "backlog": qs.backlog,
            "delivered_measured": dmeas,
            "throughput_pps": dmeas / meas_s if measured > 0 else 0.0,
        }
    ap_ids = set(ap_queue_ids)
    down = sum(queues[queue_name(q)]["throughput_pps"] for q in ap_ids)
    up = sum(queues[queue_name(q)]["throughput_pps"] for q in range(nq)
             if q not in ap_ids)
    occ = [(tally.q[q].occ_us - snap["occ"][q]) / measured if measured > 0 else 0.0
           for q in range(nq)]
    sta_ids = [q for q in range(nq) if q not in ap_ids]
    p_a = sum(occ[q] for q in ap_ids) / len(ap_ids)
    p_s = sum(occ[q] for q in sta_ids) / len(sta_ids)
    n_renew = tally.successes - snap["successes"]
    mean_renewal = None
    if n_renew >= 1 and snap["last_success_t"] is not None:
        mean_renewal = (tally.last_success_t - snap["last_success_t"]) / n_renew
    elif n_renew >= 2 and tally.first_after_snap is not None:
        mean_renewal = ((tally.last_success_t - tally.first_after_snap)
                        / (n_renew - 1))
    return SimReport(
        scheme=scheme,
        n_stations=config.n_stations,
        lambda_pps=config.lambda_pps,
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
        winner_side_counts={k: tally.winner_sides[k] - snap["winner_sides"][k]
                            for k in tally.winner_sides},
        ap_internal_merges=ap_merges,
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


def run_dcf(config: SystemConfig, timing: MacTiming, space: ChannelSpace,
            rate_adaptation: str = "arf",
            duration_us: float | None = None,
            warmup_frac: float = 0.05) -> SimReport:
    """802.11 DCF baseline: one aggregate AP queue plus N STA queues, binary
    exponential backoff (CW 15..1023), per-attempt rate adaptation.

    "threshold" picks the quantization-table rate for the channel state the
    link showed on its previous exchange; with fading that decorrelates
    between exchanges this knowledge is one coherence interval stale, unlike
    the opportunistic MAC whose timer encodes the current state.  "arf"
    climbs after 10 straight successes and falls back after 2 failures.
    """
    if rate_adaptation not in ("arf", "threshold"):
        raise ParameterError("rate_adaptation must be 'arf' or 'threshold'")
    if duration_us is None:
        raise ParameterError("run_dcf requires a duration")
    use_arf = rate_adaptation == "arf"
    n = config.n_stations
    ns = n + 1  # station 0 = AP
    delta = timing.slot_us
    eifs = timing.difs_us + timing.sifs_us + timing.ack_us
    lam_us = config.lambda_pps * 1e-6

    arr_rngs, (chan_rng, back_rng, per_rng, _pick, dest_rng) = _rng_streams(
        config.seed, ns)
    next_state = _state_draws(config, space, chan_rng).__next__
    next_coin = _blocks(per_rng.random, DRAW_BLOCK).__next__
    next_dest = _blocks(partial(dest_rng.integers, n), DRAW_BLOCK).__next__
    per = [float(e) for e in config.per_state_per]
    airtime = [timing.data_airtime(s) for s in range(space.num_states)]

    tally = _Tally(ns, space.num_states)
    qstat = tally.q
    backlogged: set[int] = set()  # stations with backlog > 0
    # destination of the AP's head packet, drawn at its first attempt; the
    # queue is FIFO, so the k-th head packet takes the stream's k-th draw
    ap_dest = None
    # link id: uplink of station i is i, downlink to station i is n + i
    arf = [_ArfState() for _ in range(2 * n)]
    last_seen = [0] * (2 * n)  # latest observed state per link

    heap: list[tuple] = []
    push, pop = heapq.heappush, heapq.heappop

    if lam_us > 0.0:
        next_gap = [_gap_draws(arr_rngs[0], 1.0 / (n * lam_us))]
        next_gap += [_gap_draws(r, 1.0 / lam_us) for r in arr_rngs[1:]]
        for st in range(ns):
            push(heap, (next_gap[st](), EV_ARRIVAL, st))

    cw = [CW_MIN] * ns
    slots_left: list = [None] * ns
    phase = "vacant"  # vacant | countdown | busy
    idle_t0 = 0.0
    epoch = 0
    pending_outcome = None
    end_time = duration_us
    push(heap, (warmup_frac * duration_us, EV_MARK, -1))

    def normalize(t: float) -> None:
        nonlocal idle_t0
        # slack absorbs float error of the t0 + k*delta event times
        elapsed = int(math.floor((t - idle_t0) / delta + 1e-7))
        if elapsed > 0:
            slots_left[:] = [None if s is None else max(0, s - elapsed)
                             for s in slots_left]
            idle_t0 += elapsed * delta

    def schedule_tx() -> None:
        nonlocal epoch
        active = [s for s in slots_left if s is not None]
        if active:
            epoch += 1
            push(heap, (idle_t0 + min(active) * delta, EV_RESOLVE, epoch))

    def begin_idle(t0: float) -> None:
        nonlocal phase, idle_t0
        idle_t0 = t0
        for st in sorted(backlogged):
            if slots_left[st] is None:
                slots_left[st] = int(back_rng.integers(cw[st] + 1))
        if backlogged:
            phase = "countdown"
            schedule_tx()
        else:
            phase = "vacant"

    def fail_station(st: int, t: float) -> None:
        nonlocal ap_dest
        qs = qstat[st]
        qs.retry += 1
        cw[st] = min(2 * cw[st] + 1, CW_MAX)
        if config.retry_limit is not None and qs.retry > config.retry_limit:
            qs.flush(t)
            qs.backlog -= 1
            qs.dropped += 1
            qs.retry = 0
            cw[st] = CW_MIN
            if not qs.backlog:
                backlogged.discard(st)
            if st == 0:
                ap_dest = None

    while heap:
        now, rank, tag = pop(heap)
        if now > end_time:
            break

        if rank == EV_ARRIVAL:
            st = tag
            qs = qstat[st]
            qs.flush(now)
            qs.arrivals += 1
            qs.backlog += 1
            push(heap, (now + next_gap[st](), EV_ARRIVAL, st))
            if qs.backlog == 1:
                backlogged.add(st)
                if phase == "vacant":
                    phase = "countdown"
                    idle_t0 = now
                    slots_left[st] = int(back_rng.integers(cw[st] + 1))
                    schedule_tx()
                elif phase == "countdown":
                    normalize(now)
                    others = [s for st2, s in enumerate(slots_left)
                              if s is not None and st2 != st]
                    join = int(back_rng.integers(cw[st] + 1))
                    if now > idle_t0:
                        join += 1  # mid-slot joiner starts at the next boundary
                    slots_left[st] = join
                    if not others or join < min(others):
                        schedule_tx()
                # during busy: backlog only; backoff drawn at next idle start

        elif rank == EV_RESOLVE:
            if tag != epoch or phase != "countdown":
                continue
            normalize(now)
            winners = [st for st in range(ns) if slots_left[st] == 0]
            if not winners:
                raise InvariantError("transmission event with no zero counter")
            attempts = []
            for st in winners:
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
                slots_left[st] = None  # fresh backoff after this attempt
            busy = max(airtime[r] for _, _, _, r in attempts)
            if len(winners) == 1:
                st, link, h, ridx = attempts[0]
                # + ACK (or its timeout) + trailing DIFS / EIFS
                busy += timing.sifs_us + timing.ack_us
                ok = next_coin() >= (per[ridx] if h >= ridx else 1.0)
                pending_outcome = ("tx", attempts, ok)
                busy += timing.difs_us if ok else eifs
            else:
                pending_outcome = ("col", attempts, False)
                busy += eifs
            phase = "busy"
            push(heap, (now + busy, EV_END, -1))

        elif rank == EV_END:
            kind, attempts, ok = pending_outcome
            pending_outcome = None
            if kind == "tx":
                st, link, h, ridx = attempts[0]
                if ok:
                    qs = qstat[st]
                    qs.flush(now)
                    qs.backlog -= 1
                    qs.delivered += 1
                    qs.retry = 0
                    cw[st] = CW_MIN
                    if not qs.backlog:
                        backlogged.discard(st)
                    if st == 0:
                        ap_dest = None
                    if use_arf:
                        arf[link].on_success(space.num_states - 1)
                    tally.on_success(now, ridx, AP if st == 0 else STA)
                else:
                    fail_station(st, now)
                    if use_arf:
                        arf[link].on_failure()
            else:
                tally.collisions += 1
                for st, link, _h, _r in attempts:
                    fail_station(st, now)
                    if use_arf:
                        arf[link].on_failure()
            begin_idle(now)

        else:  # EV_MARK
            tally.snapshot(now)

    if tally.snap is None:
        tally.snapshot(0.0)
    tally.flush(end_time)
    return _build_report(f"dcf-{rate_adaptation}", config, tally, end_time, ns, 0,
                         queue_name=lambda st: "ap" if st == 0 else f"sta{st - 1}",
                         ap_queue_ids=[0])
