import hashlib
import json
import math
from collections import Counter
from functools import partial

import numpy as np
import pytest

from oppmac import MacTiming, ParameterError, SystemConfig, TimerPolicy, fixed_points, sim
from oppmac.core import WARMUP_FRAC
from oppmac.sim import (
    CW_MAX,
    CW_MIN,
    InvariantError,
    _ArfState,
    _backoff_draws,
    _build_report,
    _Draws,
    _run,
    _state_draws,
    _Tally,
    run_dcf,
    run_opportunistic,
)

from oracles import bianchi_saturation


def assert_conservation(report):
    for name, q in report.queues.items():
        assert q["arrivals"] == q["delivered"] + q["dropped"] + q["backlog"], name


@pytest.mark.parametrize("mac", ["opportunistic", "dcf"])
def test_zero_rate_run_is_empty(mac, policy, timing, space):
    cfg = SystemConfig(n_stations=3, pi=(0.25,) * 4, seed=9)
    if mac == "opportunistic":
        rep = run_opportunistic(0.0, cfg, policy, timing, space, duration_us=1e6)
    else:
        rep = run_dcf(0.0, cfg, timing, space, "arf", duration_us=1e6)
    assert rep.duration_us == 1e6
    assert rep.system_pps == 0.0
    assert rep.collisions_total == 0
    assert rep.renewal_count == 0
    assert rep.mean_renewal_us is None
    assert rep.p_a_hat == 0.0 and rep.p_s_hat == 0.0
    assert_conservation(rep)


@pytest.mark.parametrize("mac", ["opportunistic", "dcf"])
@pytest.mark.parametrize("lam,duration_us", [
    (20.0, float("nan")), (20.0, float("inf")), (20.0, -1e6), (20.0, 0.0),
    (0.0, float("nan")), (20.0, 5e-324),
])
def test_bad_duration_refused_at_entry(mac, lam, duration_us, policy, timing, space,
                                       monkeypatch):
    """A duration that is not finite and positive, or whose measured window
    rounds to 0 s, is refused by both simulators before the event loop
    starts: it would hang (NaN, inf), return an all-zero report (negative,
    zero) or divide by a zero window (5e-324)."""
    def started(*args, **kwargs):
        raise AssertionError("the event loop started")
    monkeypatch.setattr(sim, "_run", started)
    cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4)
    with pytest.raises(ParameterError, match="duration"):
        if mac == "opportunistic":
            run_opportunistic(lam, cfg, policy, timing, space, duration_us=duration_us)
        else:
            run_dcf(lam, cfg, timing, space, "arf", duration_us=duration_us)


def test_determinism_bit_identical(policy, timing, space):
    cfg = SystemConfig(n_stations=4, pi=(0.25,) * 4, seed=1234)
    a = run_opportunistic(70.0, cfg, policy, timing, space, duration_us=3e6)
    b = run_opportunistic(70.0, cfg, policy, timing, space, duration_us=3e6)
    assert a.to_json() == b.to_json()
    c = run_opportunistic(70.0, SystemConfig(n_stations=4, pi=(0.25,) * 4, seed=1235),
                          policy, timing, space, duration_us=3e6)
    assert c.to_json() != a.to_json()


@pytest.mark.parametrize("seed", [3, 17, 91])
def test_conservation_random_loads(seed, policy, timing, space):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(1, 5))
    lam = float(rng.uniform(5.0, 400.0))
    cfg = SystemConfig(
        n_stations=n,
        pi=(0.25,) * 4,
        retry_limit=int(rng.integers(0, 4)),
        seed=seed,
    )
    rep = run_opportunistic(lam, cfg, policy, timing, space, duration_us=4e6)
    assert_conservation(rep)
    assert rep.duration_us == 4e6


def test_parity_split_kills_pair_collisions(timing, space):
    """p=1 pins AP draws to even slots and STA draws to odd ones: at light
    load a lone pair never collides with itself (mid-period joiners could in
    principle tie across the parity split, but that needs an arrival in one
    specific slot and is unobservable at this rate)."""
    policy = TimerPolicy(p=1.0, delta_us=9.0, num_states=4)
    cfg = SystemConfig(n_stations=1, pi=(0.25,) * 4,
                       per_state_per=(0.0,) * 4, retry_limit=None, seed=5)
    rep = run_opportunistic(20.0, cfg, policy, timing, space, duration_us=30e6)
    assert rep.collisions_total == 0
    assert rep.renewal_count > 500


def test_saturated_occupancy(policy, timing, space):
    cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4, retry_limit=None, seed=2)
    rep = run_opportunistic(5000.0, cfg, policy, timing, space, duration_us=5e6)
    assert rep.p_a_hat > 0.999 and rep.p_s_hat > 0.999
    assert rep.collisions > 0
    assert rep.ap_internal_merges > 0  # simultaneous AP expiries merged


def test_winner_rate_bias(policy, timing, space):
    """With several saturated pairs the winning states stochastically
    dominate the raw channel distribution."""
    pi = (0.25, 0.25, 0.25, 0.25)
    cfg = SystemConfig(n_stations=3, pi=pi, retry_limit=None, seed=8)
    rep = run_opportunistic(3000.0, cfg, policy, timing, space, duration_us=20e6)
    counts = np.asarray(rep.winner_state_counts, dtype=float)
    emp_cdf = np.cumsum(counts / counts.sum())
    pi_cdf = np.cumsum(pi)
    assert (emp_cdf[:-1] < pi_cdf[:-1] - 0.05).all()


def test_matches_analysis_n2(policy, timing, space, uniform_pi):
    """Analysis cross-validation at desk scale: N=2, lambda=20."""
    cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4, retry_limit=None, seed=42)
    sol, = fixed_points([20.0], cfg, TimerPolicy(), uniform_pi, timing)
    rep = run_opportunistic(20.0, cfg, policy, timing, space, duration_us=1875e6)
    assert abs(rep.p_a_hat - sol.p_a) / sol.p_a < 0.02
    assert abs(rep.p_s_hat - sol.p_s) / sol.p_s < 0.02
    assert abs(rep.mean_renewal_us - sol.expected_renewal_us) \
        / sol.expected_renewal_us < 0.02


def test_estimators(policy, timing, space):
    cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4, seed=6)
    rep = run_opportunistic(50.0, cfg, policy, timing, space, duration_us=10e6)
    assert 0.0 < rep.p_a_hat < 1.0 and 0.0 < rep.p_s_hat < 1.0
    assert rep.renewal_count > 0
    # mean renewal length = measured window / renewals, up to the partial
    # cycles at the window's two ends
    assert rep.mean_renewal_us == pytest.approx(rep.measured_us / rep.renewal_count,
                                                rel=0.01)
    empty = run_opportunistic(0.0, SystemConfig(n_stations=2, pi=(0.25,) * 4),
                              policy, timing, space, duration_us=1e6)
    assert empty.mean_renewal_us is None


def test_report_json_round_trip(policy, timing, space):
    """The JSON holds every report field, unchanged, plus the meta block."""
    cfg = SystemConfig(n_stations=1, pi=(0.25,) * 4, seed=11)
    rep = run_opportunistic(30.0, cfg, policy, timing, space, duration_us=2e6)
    meta = {"config_hash": "abc"}
    assert json.loads(rep.to_json(meta)) == {**rep.__dict__, "_meta": meta}


def test_rayleigh_mode_runs(policy, timing, space):
    cfg = SystemConfig(n_stations=2, mean_ebn0_db=28.0, seed=13)
    rep = run_opportunistic(40.0, cfg, policy, timing, space, duration_us=5e6)
    assert rep.system_pps > 0
    assert_conservation(rep)


# ------------------------------------------------------------------- DCF

def test_dcf_requires_duration(timing, space):
    cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4)
    with pytest.raises(TypeError, match="duration_us"):
        run_dcf(10.0, cfg, timing, space, "arf")
    with pytest.raises(ParameterError):
        run_dcf(10.0, cfg, timing, space, "bogus", duration_us=1e6)


def test_dcf_determinism_and_conservation(timing, space):
    cfg = SystemConfig(n_stations=3, mean_ebn0_db=25.0, seed=77)
    a = run_dcf(120.0, cfg, timing, space, "arf", duration_us=5e6)
    b = run_dcf(120.0, cfg, timing, space, "arf", duration_us=5e6)
    assert a.to_json() == b.to_json()
    assert_conservation(a)
    assert set(a.queues) == {"ap", "sta0", "sta1", "sta2"}


def test_dcf_equal_access_share(timing, space):
    """Saturated DCF gives the AP 1/(N+1) of the successes even though it
    carries N times the load."""
    n = 3
    lam = 1500.0
    cfg = SystemConfig(n_stations=n, pi=(0.25,) * 4, retry_limit=7, seed=21)
    rep = run_dcf(lam, cfg, timing, space, "threshold", duration_us=60e6)
    share = rep.winner_side_counts["ap"] / sum(rep.winner_side_counts.values())
    assert abs(share - 1.0 / (n + 1)) < 0.01
    # and the downlink is starved relative to its offered load
    assert rep.downlink_pps < n * lam / 2


@pytest.mark.parametrize("slot_us", [1e-3, 1e-12])
@pytest.mark.parametrize("adaptation", ["arf", "threshold"])
def test_dcf_runs_at_a_tiny_slot(space, slot_us, adaptation):
    """Once the float error of the event times passes a slot, a resolution
    still fires at the slot it was scheduled for, and the run conserves."""
    cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4, seed=5)
    timing = MacTiming.dot11a(space, slot_us=slot_us)
    rep = run_dcf(300.0, cfg, timing, space, adaptation, 3e6)
    assert_conservation(rep)
    assert sum(q["delivered"] for q in rep.queues.values()) > 0


def test_dcf_arf_counters():
    arf = _ArfState()
    for _ in range(9):
        arf.on_success(3)
    assert arf.rate == 0
    arf.on_success(3)
    assert arf.rate == 1  # ten straight successes move one rate up
    arf.on_failure()
    assert arf.rate == 1
    arf.on_failure()
    assert arf.rate == 0  # two straight failures fall back


def test_dcf_arf_climbs_on_clean_channel(timing, space):
    cfg = SystemConfig(n_stations=1, pi=(0.0, 0.0, 0.0, 1.0),
                       per_state_per=(0.0,) * 4, retry_limit=7, seed=31)
    rep = run_dcf(400.0, cfg, timing, space, "arf", duration_us=10e6)
    counts = rep.winner_state_counts
    assert counts[3] > 0.8 * sum(counts)  # reaches and stays at the top rate


def test_dcf_threshold_tracks_previous_state(timing, space):
    """Stale-CSI threshold adaptation transmits at the previously observed
    state, so with a frozen channel it is exact from the second attempt on."""
    cfg = SystemConfig(n_stations=1, pi=(0.0, 0.0, 1.0, 0.0),
                       per_state_per=(0.0,) * 4, retry_limit=7, seed=33)
    rep = run_dcf(400.0, cfg, timing, space, "threshold", duration_us=5e6)
    counts = rep.winner_state_counts
    assert counts[2] > 0.95 * sum(counts)


@pytest.mark.parametrize("n", [2, 7, 15])
def test_dcf_matches_bianchi_saturation(n, timing, space):
    """Saturated DCF on a clean, frozen top-rate channel with no retry limit
    delivers Bianchi's saturation throughput for n + 1 stations (the AP
    contends as one station) to within 3%, and its share of busy periods
    that collide lies within 10% of the model's."""
    cfg = SystemConfig(n_stations=n, pi=(0.0, 0.0, 0.0, 1.0),
                       per_state_per=(0.0,) * 4, retry_limit=None, seed=41)
    rep = run_dcf(5000.0, cfg, timing, space, "threshold", duration_us=20e6)
    eifs = timing.difs_us + timing.sifs_us + timing.ack_us
    stages = ((CW_MAX + 1) // (CW_MIN + 1)).bit_length() - 1
    pps, col_share = bianchi_saturation(n + 1, CW_MIN + 1, stages, timing.per_state_tx_us[3],
                                        timing.data_airtime(3) + eifs, timing.slot_us)
    assert abs(rep.system_pps / pps - 1.0) < 0.03
    sim_share = rep.collisions / (rep.collisions + rep.renewal_count)
    assert abs(sim_share / col_share - 1.0) < 0.10


@pytest.mark.parametrize("mac", ["opportunistic", "dcf"])
@pytest.mark.parametrize("lengths", [
    dict(pi=(0.5, 0.5)),
    dict(pi=(0.2,) * 5),
    dict(pi=(0.25,) * 4, per_state_per=(0.1,) * 2),
    dict(pi=(0.25,) * 4, per_state_per=(0.1,) * 6),
    dict(mean_ebn0_db=28.0, per_state_per=(0.1,) * 6),
])
def test_simulators_reject_mismatched_lengths(mac, lengths, policy, timing, space):
    """A pi or PER vector without one entry per channel state is refused at
    entry, before any draw."""
    cfg = SystemConfig(n_stations=2, seed=3, **lengths)
    with pytest.raises(ParameterError, match="length does not match"):
        if mac == "opportunistic":
            run_opportunistic(50.0, cfg, policy, timing, space, duration_us=1e6)
        else:
            run_dcf(50.0, cfg, timing, space, "arf", duration_us=1e6)


@pytest.mark.parametrize("mac", ["opportunistic", "dcf", "analysis"])
@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
def test_bad_rate_refused_at_entry(mac, lam, policy, timing, space, uniform_pi):
    """An arrival rate that is negative or not finite is refused by both
    simulators and by the analysis before any draw or solve."""
    cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4)
    with pytest.raises(ParameterError, match="arrival rate"):
        if mac == "opportunistic":
            run_opportunistic(lam, cfg, policy, timing, space, duration_us=1e6)
        elif mac == "dcf":
            run_dcf(lam, cfg, timing, space, "arf", duration_us=1e6)
        else:
            fixed_points([lam], cfg, policy, uniform_pi, timing)


def test_backoff_blocks_match_scalar_integers():
    """Backoffs served from blocks of raw 32-bit draws equal, draw for draw,
    ``Generator.integers(cw + 1)`` scalar calls over random windows in
    CW_MIN..CW_MAX, which holds only while every cw + 1 is a power of two."""
    assert (CW_MIN + 1) & CW_MIN == 0 and (CW_MAX + 1) & CW_MAX == 0
    windows = [((CW_MIN + 1) << i) - 1
               for i in range(((CW_MAX + 1) // (CW_MIN + 1)).bit_length())]
    assert windows[0] == CW_MIN and windows[-1] == CW_MAX
    for seed in range(5):
        cws = [windows[i] for i in
               np.random.Generator(np.random.PCG64(900 + seed))
               .integers(len(windows), size=10_000).tolist()]
        draw = _backoff_draws(np.random.Generator(np.random.PCG64(seed)))
        ref = np.random.Generator(np.random.PCG64(seed))
        got = [draw(cw) for cw in cws]
        assert got == [int(ref.integers(cw + 1)) for cw in cws]
        assert max(got) > 1000


def test_heap_entry_ordering(space):
    """Driven with stub hooks and fixed gaps, ``_run`` fires two arrivals, a
    channel event and the warmup mark that share one instant in the order
    arrival (lower queue first), channel event, mark; a join that returns an
    earlier time supersedes the pending resolution, which never fires.  An
    arrival at a backlogged queue at the instant a transaction ends counts
    before the end, so the delivery there leaves that queue backlogged."""
    calls = []

    def start(t):
        calls.append(("start", t))
        return 8.0 if t == 1.0 else 500.0  # the second resolves past the end

    def join(q, t):
        calls.append(("join", q, t))
        return 5.0 if q == 3 else None

    def resolve():
        calls.append(("resolve",))
        return 10.0

    def end(t):
        tally.deliver(2, t, 0)
        calls.append(("end", t, tally.q[2].arrivals, tally.q[2].backlog))

    # queue 2 arrives at 1 and 15 = the end, queue 3 at 3, queues 0 and 1
    # at 5 = the mark
    gaps = [[5.0, 1e9], [5.0, 1e9], [1.0, 14.0, 1e9], [3.0, 1e9]]
    next_gap = [iter(g).__next__ for g in gaps]
    cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4)
    tally = _Tally(["0", "1", "2", "3"], [0, 2], space.num_states, None)
    snapshot = tally.snapshot
    tally.snapshot = lambda t: (calls.append(("mark", t)), snapshot(t))
    rep = _run("stub", cfg, 1.0, tally, next_gap, start, join, resolve, end, 100.0)
    assert calls == [("start", 1.0), ("join", 3, 3.0), ("join", 0, 5.0),
                     ("join", 1, 5.0), ("resolve",), ("mark", 5.0),  # resolved at 5: ends at 5 + 10
                     ("end", 15.0, 2, 1), ("start", 15.0)]
    assert rep.warmup_us == 5.0 and rep.duration_us == 100.0
    assert [rep.queues[str(q)]["backlog"] for q in range(4)] == [1] * 4
    assert rep.queues["2"]["delivered"] == 1 and tally.heap == [(math.inf, -1)]


@pytest.mark.parametrize("first_busy", [8.0, 8.5])
@pytest.mark.parametrize("last_busy", [174.0, 174.5])
def test_transaction_end_event_order(space, first_busy, last_busy):
    """Driven with stub hooks and fixed gaps, ``_run`` orders each
    transaction end against the events at its instant: an end at exactly
    the warmup mark runs before the snapshot, and one past it after; an
    arrival at an empty queue at exactly an end is counted before it; an end
    at exactly the duration runs, and one past it ends the run unapplied.
    An arrival at an empty queue whose next gap is 0 counts both arrivals at
    once."""
    calls = []
    resolutions = {1.0: 2.0, 20.0: 21.0, 25.0: 26.0, 200.0: 201.0}
    busies = iter([first_busy, 4.0, last_busy])

    def start(t):
        calls.append(("start", t))
        return resolutions[t]

    def join(q, t):
        raise AssertionError("no arrival comes mid-contention")

    def resolve():
        calls.append(("resolve",))
        return next(busies)

    def end(t):
        calls.append(("end", t, tally.snap is None, [qs.arrivals for qs in tally.q],
                      [qs.backlog for qs in tally.q]))
        tally.deliver(min(tally.backlogged), t, 0)

    # the mark falls at 10 and the run ends at 200; queue 0 arrives at 1,
    # queue 1 at 20, queue 2 at 25 = the second end, queue 3 twice at 30
    gaps = [[1.0, 1e9], [20.0, 1e9], [25.0, 1e9], [30.0, 0.0, 1e9]]
    next_gap = [iter(g).__next__ for g in gaps]
    cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4)
    tally = _Tally(["0", "1", "2", "3"], [0, 2], space.num_states, None)
    snapshot = tally.snapshot
    tally.snapshot = lambda t: (calls.append(("mark", t)), snapshot(t))
    rep = _run("stub", cfg, 1.0, tally, next_gap, start, join, resolve, end, 200.0)
    first_end = [("end", 2.0 + first_busy, first_busy == 8.0, [1, 0, 0, 0], [1, 0, 0, 0])]
    want = [("start", 1.0), ("resolve",)]
    want += first_end + [("mark", 10.0)] if first_busy == 8.0 else [("mark", 10.0)] + first_end
    want += [("start", 20.0), ("resolve",), ("end", 25.0, False, [1, 1, 1, 0], [0, 1, 1, 0]),
            ("start", 25.0), ("resolve",)]
    if last_busy == 174.0:  # the third transaction ends at exactly the duration
        want += [("end", 200.0, False, [1, 1, 1, 2], [0, 0, 1, 2]), ("start", 200.0)]
    assert calls == want
    assert rep.warmup_us == 10.0 and rep.duration_us == 200.0
    assert [rep.queues[str(q)]["arrivals"] for q in range(4)] == [1, 1, 1, 2]
    delivered = [1, 1, 1 if last_busy == 174.0 else 0, 0]
    assert [rep.queues[str(q)]["delivered"] for q in range(4)] == delivered
    assert [rep.queues[str(q)]["backlog"] for q in range(4)] == [0, 0, 1 - delivered[2], 2]


def _gen():
    return np.random.Generator(np.random.PCG64(2024))


def test_integers_of_one_value_draws_nothing():
    """``Generator.integers(1)`` returns 0 without advancing the stream, so
    ``run_opportunistic`` may skip the uniform pick of a lone AP expiry and
    keep every later draw of ``pick_rng``."""
    gen, ref = _gen(), _gen()
    state = gen.bit_generator.state
    assert [int(gen.integers(1)) for _ in range(5)] == [0] * 5
    assert gen.bit_generator.state == state
    assert gen.integers(7, size=9).tolist() == ref.integers(7, size=9).tolist()


def _reference_streams(space, k):
    """(name, stream served in blocks of 7, its first k draws by scalar calls)
    for the uniform, explicit-pi state and Rayleigh state streams."""
    ref = _gen()
    yield "uniform", _Draws(_gen().random, 7), [ref.random() for _ in range(k)]

    pi = (0.1, 0.2, 0.3, 0.4)
    cum = np.cumsum(pi)
    ref = _gen()
    want = [min(int(np.searchsorted(cum, ref.random(), side="right")), 3)
            for _ in range(k)]
    assert len(set(want)) == 4
    explicit = SystemConfig(n_stations=1, pi=pi)
    yield "explicit", _state_draws(explicit, space, _gen(), size=7), want

    edges = space.thresholds_linear()[1:]
    ref = _gen()
    want = [int(np.searchsorted(edges, ref.exponential(10.0 ** 2.8), side="right"))
            for _ in range(k)]
    assert len(set(want)) > 1
    rayleigh = SystemConfig(n_stations=1, mean_ebn0_db=28.0)
    yield "rayleigh", _state_draws(rayleigh, space, _gen(), size=7), want


def test_block_draws_match_scalar_calls(space):
    """A stream served in blocks of 7 gives, across three block boundaries,
    the same Python scalars in the same order as one scalar call per draw."""
    k = 23

    def served(draws):
        got = [draws.next() for _ in range(k)]
        assert len({type(x) for x in got}) == 1
        return got

    ref = _gen()
    assert served(_Draws(partial(_gen().exponential, 631.5), 7)) \
        == [ref.exponential(631.5) for _ in range(k)]
    for _, draws, want in _reference_streams(space, k):
        assert served(draws) == want


@pytest.mark.parametrize("name", ["uniform", "explicit", "rayleigh"])
def test_stream_peek_and_skip_match_scalar_calls(name, space):
    """Scalar draws, ``peek`` and ``skip`` of a stream served in blocks of 7,
    interleaved in any order, give exactly the draws of scalar calls on an
    identically seeded generator: a peek before the first draw, peeks longer
    than a block and across block boundaries, skips inside one block and
    past several.  A peek consumes nothing and repeats."""
    scripted = [("peek", 3), ("peek", 3), ("next", 2), ("peek", 20), ("skip", 4),
                ("next", 5), ("peek", 9), ("skip", 16), ("next", 3), ("peek", 1),
                ("skip", 1), ("skip", 7), ("peek", 30), ("next", 1)]
    mix = np.random.Generator(np.random.PCG64(77))
    shuffled = [(("next", "peek", "skip")[op], int(m)) for op, m in
                zip(mix.integers(3, size=400), mix.integers(0, 25, size=400))]
    for ops in (scripted, shuffled):
        k = sum(m for op, m in ops if op != "peek") + 30
        draws, want = next((d, w) for stream, d, w in _reference_streams(space, k)
                           if stream == name)
        at = 0
        for op, m in ops:
            if op == "peek":
                got = draws.peek(m).tolist()
                assert got == want[at:at + m]
                assert [type(x) for x in got] == [type(x) for x in want[at:at + m]]
            elif op == "skip":
                draws.skip(m)
                at += m
            else:
                assert [draws.next() for _ in range(m)] == want[at:at + m]
                at += m
        assert draws.next() == want[at]


def test_peek_draws_a_shortfall_once_and_copies_only_what_it_returns(monkeypatch):
    """A peek past the draws a stream holds makes one draw call, of whole
    blocks, for the shortfall; it copies only the draws it returns, and none
    when one held block holds them all, however many blocks the stream
    holds ahead."""
    sizes, copied = [], []
    gen, want = _gen(), _gen().random(100).tolist()

    def draw(size):
        sizes.append(size)
        return gen.random(size)

    def counted_concatenate(parts):
        copied.append(sum(map(len, parts)))
        return concatenate(parts)

    concatenate = np.concatenate
    monkeypatch.setattr(sim.np, "concatenate", counted_concatenate)
    draws, at = _Draws(draw, 7), 0
    # (op, m, draw sizes after it, copied lengths after it)
    script = [("peek", 3, [0, 7], []), ("peek", 20, [0, 7, 14], [20]),
              ("next", 2, [0, 7, 14], [20]), ("peek", 4, [0, 7, 14], [20]),
              ("skip", 8, [0, 7, 14], [20]), ("peek", 30, [0, 7, 14, 21], [20, 30]),
              ("peek", 11, [0, 7, 14, 21], [20, 30]), ("next", 12, [0, 7, 14, 21], [20, 30]),
              ("peek", 0, [0, 7, 14, 21], [20, 30]), ("peek", 20, [0, 7, 14, 21], [20, 30])]
    for op, m, want_sizes, want_copied in script:
        if op == "peek":
            assert draws.peek(m).tolist() == want[at:at + m]
        elif op == "skip":
            draws.skip(m)
            at += m
        else:
            assert [draws.next() for _ in range(m)] == want[at:at + m]
            at += m
        assert (sizes, copied) == (want_sizes, want_copied), (op, m)


def test_conservation_breach_raises():
    """The report refuses counters where a packet went missing."""
    cfg = SystemConfig(n_stations=1, pi=(0.25,) * 4)
    tally = _Tally(["ap0", "sta0"], [0], 4, None)
    tally.snapshot(0.0)
    tally.q[1].arrivals = 3
    tally.q[1].delivered = 1
    tally.q[1].backlog = 1
    with pytest.raises(InvariantError, match="sta0 breaks conservation"):
        _build_report("opportunistic", cfg, 10.0, tally, 1e6)
    tally.q[1].dropped = 1
    rep = _build_report("opportunistic", cfg, 10.0, tally, 1e6)
    assert rep.queues["sta0"]["arrivals"] == 3


def _tally_with_backlog(retry_limit, backlog):
    tally = _Tally(["ap0", "sta0"], [0], 4, retry_limit)
    qs = tally.q[1]
    qs.arrivals = qs.backlog = backlog
    tally.backlogged.add(1)
    return tally, qs


@pytest.mark.parametrize("retry_limit", [None, 0, 1])
def test_tally_fail_drops_after_retry_limit(retry_limit):
    """A failed attempt drops the head packet exactly when it exceeds the
    retry limit; a drop resets the retry count and takes one packet out."""
    tally, qs = _tally_with_backlog(retry_limit, 2)
    attempts = 5 if retry_limit is None else retry_limit + 1
    dropped = [tally.fail(1, 10.0 * k) for k in range(1, attempts + 1)]
    assert dropped == [False] * (attempts - 1) + [retry_limit is not None]
    if retry_limit is None:
        assert (qs.retry, qs.backlog, qs.dropped) == (5, 2, 0)
        return
    assert (qs.retry, qs.backlog, qs.dropped, qs.delivered) == (0, 1, 1, 0)
    assert qs.last_t == 10.0 * attempts and qs.occ_us == 10.0 * attempts
    assert tally.backlogged == {1}
    # the last packet's drop empties the queue
    assert [tally.fail(1, 100.0) for _ in range(attempts)][-1]
    assert (qs.backlog, qs.dropped) == (0, 2)
    assert tally.backlogged == set()
    assert qs.arrivals == qs.delivered + qs.dropped + qs.backlog


@pytest.mark.parametrize("retry_limit", [None, 0, 1])
def test_tally_collide_fails_each_collider(retry_limit):
    """A collision counts once and is, for each collider, the failed attempt
    ``fail`` applies: the same retries, drops, occupancy and backlogged set."""
    def tally_of_three():
        tally = _Tally(["ap0", "sta0", "ap1", "sta1"], [0, 2], 4, retry_limit)
        for q, backlog in ((0, 3), (1, 4), (3, 3)):
            qs = tally.q[q]
            qs.arrivals = qs.backlog = backlog
            tally.backlogged.add(q)
        return tally

    collided, failed = tally_of_three(), tally_of_three()
    for k in range(1, 4):
        collided.collide([0, 1, 3], 10.0 * k)
        for q in (0, 1, 3):
            failed.fail(q, 10.0 * k)
    assert collided.collisions == 3 and failed.collisions == 0
    assert collided.backlogged == failed.backlogged
    assert collided.heap == failed.heap
    for a, b in zip(collided.q, failed.q):
        assert [getattr(a, f) for f in a.__slots__] == [getattr(b, f) for f in b.__slots__]
    assert sum(qs.dropped for qs in collided.q) == {None: 0, 0: 9, 1: 3}[retry_limit]
    assert collided.backlogged == ({1} if retry_limit == 0 else {0, 1, 3})


@pytest.mark.parametrize("retry_limit", [None, 0, 1])
def test_tally_deliver_resets_retries(retry_limit):
    """A delivery takes the head packet out and resets its retry count; the
    queue leaves the backlogged set with its last packet."""
    tally, qs = _tally_with_backlog(retry_limit, 2)
    if retry_limit != 0:
        assert not tally.fail(1, 5.0)
        assert qs.retry == 1
    tally.deliver(1, 20.0, 3)
    assert (qs.retry, qs.backlog, qs.delivered, qs.dropped) == (0, 1, 1, 0)
    assert tally.backlogged == {1} and qs.occ_us == 20.0
    tally.deliver(1, 30.0, 0)
    assert (qs.backlog, qs.delivered) == (0, 2)
    assert tally.backlogged == set() and qs.occ_us == 30.0
    assert tally.q[0].delivered == 0
    assert tally.winner_states == [1, 0, 0, 1] and tally.last_success_t == 30.0


@pytest.mark.parametrize("pop", ["deliver", "fail"])
def test_pop_from_empty_queue_raises(pop):
    """Taking a head packet from an empty queue is refused by name, as the
    conservation check cannot see a backlog driven below zero."""
    tally = _Tally(["ap0", "sta0"], [0], 4, 0)
    with pytest.raises(InvariantError, match="queue sta0"):
        tally.deliver(1, 5.0, 0) if pop == "deliver" else tally.fail(1, 5.0)
    assert tally.q[1].backlog == 0


def test_deferred_count_matches_event_by_event_fold():
    """A backlogged queue's arrivals, counted only when it is flushed, give
    the counters and the bit-identical occupancy integral of flushing at
    every arrival as it happens: a flush at exactly a pending arrival's time
    counts it, a flush before it does not, and the pop that empties the
    queue leaves its next arrival, later than the pop, as its one heap
    entry."""
    gaps = np.random.Generator(np.random.PCG64(31)).exponential(7.3, size=40).tolist()
    arrival = np.cumsum(gaps).tolist()
    tally = _Tally(["ap0", "sta0"], [0], 4, 0)
    qs = tally.q[1]
    qs.gap, qs.next = iter(gaps[1:]).__next__, gaps[0]
    # as ``_run``'s arrival branch: the first arrival reaches the empty queue
    qs.flush(arrival[0])
    tally.backlogged.add(1)
    reads = [arrival[0]]

    def read(t, counted):
        reads.append(t)
        assert qs.arrivals == counted and qs.next == arrival[counted]

    qs.flush(arrival[3] - 1e-9)  # just before the fourth arrival
    read(arrival[3] - 1e-9, 3)
    tally.deliver(1, arrival[3], 0)  # at exactly the fourth
    read(arrival[3], 4)
    tally.snapshot(arrival[9] + 0.5)
    read(arrival[9] + 0.5, 10)
    while tally.backlogged:  # drops at one instant empty the queue
        tally.fail(1, arrival[12] + 0.25)
    read(arrival[12] + 0.25, 13)
    assert (qs.backlog, qs.delivered, qs.dropped) == (0, 1, 12)
    assert [e for e in tally.heap if e[1] == 1] == [(arrival[13], 1)]
    assert arrival[13] > arrival[12] + 0.25
    # the reference flushes at every arrival and every read, arrivals first
    occ, last, backlog = 0.0, 0.0, 0
    events = sorted([(a, 0) for a in arrival[:13]] + [(t, 1) for t in reads])
    for t, kind in events:
        if backlog > 0:
            occ += t - last
        last = t
        if kind == 0:
            backlog += 1
        elif t == arrival[3]:
            backlog -= 1
        elif t == reads[-1]:
            backlog = 0
    assert qs.occ_us == occ and qs.last_t == last and qs.arrivals == 13


def test_replication_consistency(policy, timing, space):
    """Distinct seeds give distinct but statistically consistent reports."""
    reps = []
    for seed in (1, 2, 3):
        cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4, seed=seed)
        reps.append(run_opportunistic(60.0, cfg, policy, timing, space, duration_us=20e6))
    blobs = {r.to_json() for r in reps}
    assert len(blobs) == 3
    rates = [r.system_pps for r in reps]
    # all replicates deliver the offered load (stable system): tight spread
    assert max(rates) - min(rates) < 0.1 * np.mean(rates)
    assert abs(np.mean(rates) - 4 * 60.0) / (4 * 60.0) < 0.05


EXPLICIT = dict(pi=(0.1, 0.2, 0.3, 0.4))
RAYLEIGH = dict(mean_ebn0_db=28.0)

# (mac, N, lambda, channel, retry limit, duration (us), sha256 of the report
# JSON)
GOLDEN_RUNS = [
    ("opportunistic", 7, 400.0, EXPLICIT, 7, 2e6,
     "91b02a601e8fcdc1a82c876904926ecd5f24bede3faf022731270bc64fa771e6"),
    ("opportunistic", 2, 60.0, RAYLEIGH, None, 6e6,
     "375405ae4d8dbf576401b4ab4a06b53dbf2cfde342977b235a04f5559bf885ed"),
    ("opportunistic", 7, 400.0, RAYLEIGH, 7, 2e6,
     "ec3b593159847b4549f7696a2ead540b951ef4961ecab0671b196cb485c1a1f6"),
    ("opportunistic", 2, 60.0, EXPLICIT, None, 2e6,
     "1eb9c6146bace105c38df0be727d4be1f1ab751a25cd7dc3ba60a363c65c83c6"),
    ("arf", 7, 400.0, EXPLICIT, 7, 5e6,
     "d59b82a9a2477cb842c6933b225d5480d542dc201b1b3713a8a3a59b371358ef"),
    ("arf", 2, 60.0, RAYLEIGH, None, 5e6,
     "fd55163dc468933d7f4f0c32b578e3bc0cbab83d6865da6a9488de042aebb8a3"),
    ("threshold", 7, 400.0, RAYLEIGH, 7, 5e6,
     "98f7259d6272b1130622385e8b382a2ea6b37e3be6c4bfa452963c3db9ea7caa"),
    ("threshold", 2, 60.0, EXPLICIT, None, 5e6,
     "2538dfbb63fa9a2b1a81e4fce6139912acbca202e2d42d9a2d04fed0a4451fd9"),
    # retry limit 0: every failed attempt drops its packet
    ("opportunistic", 7, 400.0, EXPLICIT, 0, 2e6,
     "0e73f6ae8910a6c1fb40be833f37a06b296d8de7aa51344ba5d9b45524aa25fb"),
    ("arf", 7, 400.0, RAYLEIGH, 0, 5e6,
     "e647de7da56ce2feed4b09267d5c2777754f77b0615ec39679cdeba2f7a6a7b5"),
    # zero rate: no arrival is ever scheduled
    ("arf", 3, 0.0, EXPLICIT, 7, 1e6,
     "aab7169ae38ecbd14dde8379fad3f0a6dd35e3762fb452ddf9b18855df47ef6e"),
    # N = 15 past saturation: retry-limit drops and DCF windows up to CW_MAX
    ("opportunistic", 15, 300.0, RAYLEIGH, 7, 1e6,
     "b3cc1c0a73a824a9c62c93b921bfa85d11c6b0e9431144c5c91c3c69dff29bf2"),
    ("arf", 15, 300.0, RAYLEIGH, 7, 2e6,
     "3f2cc25a053909f7f39bac3f13931c3a7ce059bbdd5f2d0fac5b96c431b195e4"),
    ("threshold", 15, 300.0, RAYLEIGH, 7, 2e6,
     "6fc7455db58fadbe3882bad72dffd51bd12eea697a1c3ae09288ea01cba9ef4b"),
    # N = 15 at moderate load: mid-contention joiners that tie the earliest
    # pending expiry
    ("opportunistic", 15, 40.0, RAYLEIGH, 7, 2e6,
     "d0b1b035796624760a416ba1d928a8a47931751dec3b95487d029de985bb9bf5"),
    # DCF joiners that tie the earliest expiry (52 of them): colliders draw
    # channel states in station order, which threshold rates remember
    ("threshold", 15, 40.0, RAYLEIGH, 7, 20e6,
     "5cb88c096a37de50f404cc20652bb093129c2775b7990d8dba365bbe09b07d54"),
    # N = 4 near capacity: 2,912 of 5,834 contentions (49.9%) start with
    # every queue backlogged, so the opportunistic MAC keeps switching
    # between the rows it reads ahead and per-queue draws.  Pinned from the
    # per-queue draws alone, before the rows were read ahead.
    ("opportunistic", 4, 190.0, EXPLICIT, 7, 2e6,
     "5a731ef7ac881f10b4b3ce5079d93b2ae4a12a2dda479576c7b52065d8b7de68"),
    # N = 7 at 5000 pkts/s, no retry limit: about 70,000 arrivals against
    # under 900 deliveries, so thousands of arrivals at a backlogged queue
    # are counted between two reads of it, and the warmup mark falls among
    # them.  Pinned with every arrival a heap event, before the arrivals at
    # a backlogged queue were counted when it is next read.
    ("opportunistic", 7, 5000.0, EXPLICIT, None, 1e6,
     "6e0b5162f5a0e1e8e87eaed6f88496145217e6f5d7205a27d456f73dfa533df0"),
    ("threshold", 7, 5000.0, RAYLEIGH, None, 1e6,
     "6a18bb1b098a39d15491c69bc67b592370ced5a8db1bf3289b037fbba8072823"),
    # N = 7 below capacity, as in the sim-light-n7 benchmark: 63-87% of the
    # contentions start with one backlogged queue (1,589 of 1,831
    # opportunistic), and some of those meet a joiner.  The last run has
    # N = 2: 2,144 of 2,958 contentions start lone, and in 10 of them the
    # lone queue's partner joins, reusing the pair's state, while other
    # pairs' queues join with states of their own.  Pinned with every
    # contention a pass over the backlogged queues, before a lone contender
    # took its draws directly.
    ("opportunistic", 7, 40.0, RAYLEIGH, 7, 3e6,
     "cdd7c58b17e259bfe9632f0d4ba377be824f8160291295aa90c832d5df1cd51a"),
    ("arf", 7, 40.0, RAYLEIGH, 7, 3e6,
     "7bca10247df2aaab36705766f5636dba9e74540692017715968110c2ebccad04"),
    ("threshold", 7, 40.0, RAYLEIGH, 7, 3e6,
     "8ae3838f0f37570977c006211b400b744c9357a384ef562ead002fdd141bcb50"),
    ("opportunistic", 2, 200.0, EXPLICIT, None, 3e6,
     "c246ce947ea05774eaa7d39b0b7966c41f77044b2fff493ead9c99b6a999c3cf"),
    # N = 7 near capacity: 3,460 of 6,786 contentions (51%) start with every
    # queue backlogged, in 64 stretches of 1 to 355.  63 of them end at a
    # contention with some queue empty, 58 with rows read ahead left over,
    # and the longest takes 2 of the 178 reads at the cap of 256 rows.
    # Pinned with a fixed read-ahead of 32 rows, before the read-ahead grew
    # with the stretch.
    ("opportunistic", 7, 120.0, EXPLICIT, 7, 2e6,
     "f47d002daca03ea6ab5ba52118df70207bc9e192c5cdf1cca85cc7c9f617a773"),
    # N = 1 past capacity with retry limit 0: a collision of the pair drops
    # both head packets.  Of its 24 stretches of full contentions, 4 end with
    # every queue empty, so the channel goes vacant straight from a stretch;
    # 19 end with one queue emptied (8 by a delivery, 11 by a drop); and the
    # last is cut by the duration inside a transaction.  Pinned before the
    # stretches ran in one loop.
    ("opportunistic", 1, 300.0, EXPLICIT, 0, 2e6,
     "aa569655c00839978ab5957af350376285a09bca225f86b65cfdb7e635c48e16"),
    # N = 7 far past capacity, retry limit 2: the warmup mark falls between
    # a full contention's start and its resolution, and the duration inside
    # a transaction; the run's 2 stretches hold 229 AP merges.  Pinned before
    # the stretches ran in one loop.
    ("opportunistic", 7, 5000.0, EXPLICIT, 2, 1554330.0,
     "7c0e0d4421bde87dd049a86318a37d339b10f8fd53862dcf242ca02f5a7a7b7c"),
]


def test_golden_report_digests(policy, timing, space):
    """Short runs of both simulators, at light load, past saturation and at
    a zero rate, reproduce their pinned reports byte for byte, including
    runs with retry-limit drops (AP-queue drops in DCF) and AP merges."""
    got, ap_drops, merges = [], 0, 0
    for i, (mac, n, lam, chan, retry, duration_us, _) in enumerate(GOLDEN_RUNS):
        cfg = SystemConfig(n_stations=n, retry_limit=retry,
                           seed=11 + i, **chan)
        if mac == "opportunistic":
            rep = run_opportunistic(lam, cfg, policy, timing, space,
                                    duration_us=duration_us)
        else:
            rep = run_dcf(lam, cfg, timing, space, mac, duration_us=duration_us)
        got.append(hashlib.sha256(rep.to_json().encode()).hexdigest())
        ap_drops += rep.queues.get("ap", {}).get("dropped", 0)
        merges += rep.ap_internal_merges
    assert got == [run[-1] for run in GOLDEN_RUNS]
    assert ap_drops > 0 and merges > 0


def _per_queue_row(h_row, u_row, base, p_even, air_us, difs):
    """One full-backlog contention as the per-queue pass of the opportunistic
    ``start`` draws it and its ``resolve`` rules on it: (earliest slot,
    queues reaching it, whether it collides, busy time or None, the lone
    winner's state or None)."""
    states, timers = iter(h_row), iter(u_row)
    pair_state, k_star, first = [None] * len(h_row), math.inf, []
    for q in range(2 * len(h_row)):
        h = pair_state[q >> 1]
        if h is None:
            h = pair_state[q >> 1] = next(states)
        k = base[h] if next(timers) < p_even[q & 1] else base[h] + 1
        if k < k_star:
            k_star, first = k, [q]
        elif k == k_star:
            first.append(q)
    busy = None
    if len(first) > 1 and any(q & 1 for q in first):
        busy = max(air_us[pair_state[q >> 1]] for q in first) + difs
    lone_state = pair_state[first[0] >> 1] if len(first) == 1 else None
    return k_star, first, busy is not None, busy, lone_state


@pytest.mark.parametrize("n", [1, 2, 7, 15])
@pytest.mark.parametrize("chan", [EXPLICIT, RAYLEIGH], ids=["explicit", "rayleigh"])
@pytest.mark.parametrize("p", [0.5, 0.85])
def test_batch_rows_match_the_per_queue_pass(n, chan, p, timing, space):
    """Each column of a batch worked out from random draws equals, row by
    row, the per-queue pass and the collision rule in plain Python: the
    earliest slot, the queues reaching it, whether it collides, the busy
    time (the same float) and the lone winner's state, each with the same
    type."""
    policy = TimerPolicy(p=p, delta_us=9.0, num_states=4)
    base = [policy.base_slot(h) for h in range(4)]
    p_even = (policy.p, 1.0 - policy.p)
    air_us = [timing.data_airtime(h) for h in range(4)]
    rows = 300
    gen = np.random.Generator(np.random.PCG64(n))
    h = _state_draws(SystemConfig(n_stations=n, **chan), space, gen).peek(rows * n)
    h = h.reshape(rows, n)
    u = gen.random((rows, 2 * n))
    got = sim._batch_rows(h, u, np.array(base), np.tile(p_even, n), np.array(air_us),
                          timing.difs_us)
    want = list(zip(*[_per_queue_row(hr, ur, base, p_even, air_us, timing.difs_us)
                      for hr, ur in zip(h.tolist(), u.tolist())]))
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert type(g) is list and len(g) == rows
        assert g == list(w)
        assert [type(x) for x in g] == [type(x) for x in w]
    kinds = {(len(first) > 1, collides) for first, collides in zip(want[1], want[2])}
    assert (True, True) in kinds and (False, False) in kinds  # collisions, lone expiries
    if n > 1:
        assert (True, False) in kinds  # AP expiries alone


@pytest.fixture
def outcomes(monkeypatch):
    """The kinds of the outcomes the tallies apply, in order: "delivery"
    for ``deliver``, "failure" for ``fail`` and ``collide``.  Each
    contention that ends applies exactly one."""
    kinds = []
    for name, kind in (("deliver", "delivery"), ("fail", "failure"), ("collide", "failure")):
        def counted(self, *args, _apply=getattr(_Tally, name), _kind=kind):
            kinds.append(_kind)
            return _apply(self, *args)
        monkeypatch.setattr(_Tally, name, counted)
    return kinds


def _wrap_hooks(monkeypatch, wrap_start=None, wrap_stretch=None):
    """Wraps the opportunistic MAC's ``start(t)`` or ``stretch(t, mark,
    stop)`` hook as ``wrap(tally, hook)`` in every run while the test
    lasts."""
    run_loop = sim._run

    def wrapped_run(scheme, config, lam, tally, next_gap, start, join, resolve, end,
                    duration_us, stretch=None):
        if stretch is not None:
            start = wrap_start(tally, start) if wrap_start else start
            stretch = wrap_stretch(tally, stretch) if wrap_stretch else stretch
        return run_loop(scheme, config, lam, tally, next_gap, start, join, resolve, end,
                        duration_us, stretch)

    monkeypatch.setattr(sim, "_run", wrapped_run)


def test_read_ahead_window_doubles_while_full_contentions_last(policy, timing, space,
                                                                monkeypatch, outcomes):
    """In the pinned N = 7, lambda = 120 run the opportunistic MAC reads
    BATCH_FIRST rows at the first full contention of a stretch and twice the
    last read, up to BATCH, each time a stretch runs out of rows; a
    contention that starts with some queue empty ends the stretch.  As
    contentions follow one another, the index of the one starting is the
    number of outcomes applied so far."""
    starts, reads = set(), []  # contentions that start with some queue empty

    def counted_start(tally, start):
        def hook(t):
            assert len(tally.backlogged) < len(tally.q)
            starts.add(len(outcomes))
            return start(t)
        return hook

    def counted_rows(h, *args):
        reads.append((len(outcomes), len(h)))
        return batch_rows(h, *args)

    batch_rows = sim._batch_rows
    _wrap_hooks(monkeypatch, wrap_start=counted_start)
    monkeypatch.setattr(sim, "_batch_rows", counted_rows)
    run_opportunistic(120.0, SystemConfig(n_stations=7, retry_limit=7, seed=34, **EXPLICIT),
                      policy, timing, space, duration_us=2e6)
    prev = None  # (contention, size) of the last read
    for at, size in reads:
        assert at not in starts
        if prev is not None and starts.isdisjoint(range(prev[0], at)):  # the stretch went on
            assert at == prev[0] + prev[1] and size == min(2 * prev[1], sim.BATCH)
        else:
            assert size == sim.BATCH_FIRST and at - 1 in starts
        prev = at, size
    assert max(size for _, size in reads) == sim.BATCH
    assert len(starts) > 1000


def test_golden_runs_end_stretches_every_way(policy, timing, space, monkeypatch, outcomes):
    """Over the golden runs, a stretch of full contentions ends each way it
    can: with every queue empty (the channel goes vacant), with a queue
    emptied by a delivery or by a drop (a contention with some queue empty
    starts), or with an event past the duration (the run ends).  Inside
    stretches the warmup snapshot is taken, at the mark, and AP merges
    happen.  A failure that empties a queue is a drop; once the snapshot is
    taken, ``_run`` passes an infinite mark."""
    exits = Counter()

    def counted_stretch(tally, stretch):
        def hook(t, mark, stop):
            assert (mark == math.inf) == (tally.snap is not None) and t <= min(mark, stop)
            merges, applied, snapped = tally.ap_merges, len(outcomes), tally.snap
            t_end = stretch(t, mark, stop)
            exits["AP merge"] += tally.ap_merges - merges
            if snapped is None and tally.snap is not None:
                assert tally.snap["t"] == mark
                exits["warmup snapshot"] += 1
            if t_end is None:
                assert tally.snap is not None and len(tally.backlogged) == len(tally.q)
                exits["the duration passed"] += 1
            else:  # the transaction end that emptied a queue
                assert t < t_end <= stop and len(outcomes) > applied
                assert (tally.snap is snapped) == (t_end <= mark)
                if tally.backlogged:
                    exits[f"a queue emptied by a {outcomes[-1]}"] += 1
                else:
                    assert outcomes[-1] == "failure"
                    exits["every queue empty"] += 1
            return t_end
        return hook

    _wrap_hooks(monkeypatch, wrap_stretch=counted_stretch)
    for i, (mac, n, lam, chan, retry, duration_us, _) in enumerate(GOLDEN_RUNS):
        if mac == "opportunistic":
            cfg = SystemConfig(n_stations=n, retry_limit=retry, seed=11 + i, **chan)
            run_opportunistic(lam, cfg, policy, timing, space, duration_us=duration_us)
    assert set(exits) == {"every queue empty", "a queue emptied by a delivery",
                          "a queue emptied by a failure", "the duration passed",
                          "warmup snapshot", "AP merge"}
    assert min(exits.values()) > 0


@pytest.mark.parametrize("n, lam, chan, retry", [
    (1, 300.0, EXPLICIT, 0), (2, 5000.0, RAYLEIGH, None), (7, 5000.0, EXPLICIT, 2),
    (15, 300.0, RAYLEIGH, 7)])
def test_stretch_matches_the_event_loop_without_it(n, lam, chan, retry, policy, timing,
                                                   space, monkeypatch):
    """Without the stretch hook ``_run`` takes each full contention through
    ``start``'s per-queue pass, which draws the same states and timers in
    the same order, so the reports are the same.  That holds also when the
    duration or the warmup mark falls exactly on a transaction end inside a
    stretch, which the stretch runs; when the mark falls strictly inside a
    stretch's transaction, whose end the stretch takes the snapshot before;
    and when the duration falls before the resolution of an AP merge inside
    a stretch, whose pick is then never drawn nor counted."""
    run_loop, inside, snapped_inside = sim._run, [False], []
    stretches = []  # (end, AP merges so far, state if delivered) of each outcome inside each

    def recorded(apply):
        def hook(self, q, t, *args):
            if inside[0]:
                stretches[-1].append((t, self.ap_merges, args))
            return apply(self, q, t, *args)
        return hook

    def run(duration_us, with_stretch):
        def looped(*args):
            *args, stretch = args
            tally = args[3]

            def hook(t, mark, stop):
                inside[0], snapped = True, tally.snap
                stretches.append([])
                try:
                    return stretch(t, mark, stop)
                finally:
                    inside[0] = False
                    snapped_inside.append(snapped is None and tally.snap is not None)
            return run_loop(*args, hook if with_stretch else None)

        monkeypatch.setattr(sim, "_run", looped)
        cfg = SystemConfig(n_stations=n, retry_limit=retry, seed=7, **chan)
        return run_opportunistic(lam, cfg, policy, timing, space,
                                 duration_us=duration_us).to_json()

    for name in ("deliver", "fail", "collide"):
        monkeypatch.setattr(_Tally, name, recorded(getattr(_Tally, name)))
    assert run(1e6, True) == run(1e6, False)
    ends = [t for outcomes in stretches for t, _, _ in outcomes]
    late = [t for t in ends if t > 5e5]
    at_mark = [t / WARMUP_FRAC for t in ends if WARMUP_FRAC * (t / WARMUP_FRAC) == t]
    # 1 us before a transaction end is inside it: no transaction is that short
    in_transaction = (ends[len(ends) // 4] - 1.0) / WARMUP_FRAC
    # half a microsecond before a delivered AP merge's resolution, if that is
    # after the transaction before it ended
    tx_us = timing.per_state_tx_us
    before_merge = [t - tx_us[h[0]] - 0.5 for outcomes in stretches
                    for (t_prev, m_prev, _), (t, m, h) in zip(outcomes, outcomes[1:])
                    if m > m_prev and h and t - tx_us[h[0]] - 0.5 > t_prev]
    assert late and at_mark and (before_merge or n == 1)
    for duration_us in (late[len(late) // 2], at_mark[0], in_transaction, *before_merge[:1]):
        del snapped_inside[:]
        assert run(duration_us, True) == run(duration_us, False)
        if duration_us == in_transaction:
            assert any(snapped_inside)


@pytest.mark.parametrize("mac", ["opportunistic", "arf", "threshold"])
@pytest.mark.parametrize("chan", [EXPLICIT, RAYLEIGH], ids=["explicit", "rayleigh"])
def test_success_counts_are_delivery_sums(mac, chan, policy, timing, space):
    """The renewal, winner-state and winner-side counts of a report are sums
    of the per-queue post-warmup deliveries, the AP side's over the AP
    queues.  The runs have retry-limit drops and collisions, so failed
    attempts and drops count in none of them."""
    cfg = SystemConfig(n_stations=4, retry_limit=1, seed=5, **chan)
    if mac == "opportunistic":
        rep = run_opportunistic(300.0, cfg, policy, timing, space, duration_us=2e6)
    else:
        rep = run_dcf(300.0, cfg, timing, space, mac, duration_us=2e6)
    delivered = {name: q["delivered_measured"] for name, q in rep.queues.items()}
    assert rep.renewal_count > 0 and rep.collisions > 0 and rep.dropped_total > 0
    assert rep.renewal_count == sum(delivered.values()) \
        == sum(rep.winner_state_counts) == sum(rep.winner_side_counts.values())
    assert rep.winner_side_counts["ap"] == sum(
        d for name, d in delivered.items() if name.startswith("ap"))
