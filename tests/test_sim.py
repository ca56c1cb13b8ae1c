import hashlib
import json
from functools import partial

import numpy as np
import pytest

from oppmac import MacTiming, ParameterError, SystemConfig, TimerPolicy, fixed_points, sim
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
    earlier time supersedes the pending resolution, which never fires."""
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
        calls.append(("end", t))

    # queue 2 arrives at 1, queue 3 at 3, queues 0 and 1 at 5 = the mark
    first = [5.0, 5.0, 1.0, 3.0]
    next_gap = [iter([g, 1e9]).__next__ for g in first]
    cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4)
    tally = _Tally(["0", "1", "2", "3"], [0, 2], space.num_states, None)
    snapshot = tally.snapshot
    tally.snapshot = lambda t: (calls.append(("mark", t)), snapshot(t))
    rep = _run("stub", cfg, 1.0, tally, next_gap, start, join, resolve, end, 100.0)
    assert calls == [("start", 1.0), ("join", 3, 3.0), ("join", 0, 5.0),
                     ("join", 1, 5.0), ("resolve",), ("mark", 5.0),  # resolved at 5: ends at 5 + 10
                     ("end", 15.0), ("start", 15.0)]
    assert rep.warmup_us == 5.0 and rep.duration_us == 100.0
    assert [rep.queues[str(q)]["backlog"] for q in range(4)] == [1] * 4


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
