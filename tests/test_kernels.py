import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppmac import (
    AP,
    STA,
    ConsistencyError,
    KernelTable,
    ParameterError,
    TimerPolicy,
    build_kernels,
    cycle_models,
)
from oppmac.analysis import CensusSpace, enumerate_censuses
from oppmac import kernels
from oppmac.kernels import PAIR_STATES, _leggauss

from conftest import LAMBDA_GRID, P_GRID, PI_GRID
from oracles import (
    kernel_enumeration,
    kernel_oracle,
    p_col,
    p_hat_minislot,
    p_suc_ap,
    p_suc_ap_config_sum,
    p_suc_sta,
    pair_transition_probs,
    survival,
    system_oracle,
    transition_deltas,
    transition_prob,
    z_scores,
)


def make_kernels(pi=(0.25,) * 4, lam=5e3, p=0.5):
    policy = TimerPolicy(p=p, delta_us=9.0, num_states=4)
    return build_kernels(policy, np.asarray(pi), lam)


def q_of(lam, delta=9.0):
    return -math.expm1(-lam * 1e-6 * delta)


def summaries(kt, timing, n):
    """{(k1, k2, k3): (succ[k, state], col[k])} over every census of n pairs."""
    model = cycle_models([kt], timing, (0.1,) * 4, n)[0]
    return {c: (model.succ[ci], model.col[ci]) for ci, c in enumerate(model.space.censuses)}


def lone_queue_law(p_even, pi=(0.25,) * 4):
    """[k, state] law of one queue's timer with no other contender."""
    law = np.zeros((8, 4))
    for h, w in enumerate(pi):
        b = 2 * (3 - h)
        law[b, h], law[b + 1, h] = w * p_even, w * (1 - p_even)
    return law


# ---------------------------------------------------------------- kernels

@pytest.mark.parametrize("lam", (0.0, 1.0, 50.0, 5e3, 1e6))
@pytest.mark.parametrize("num_states", (1, 2, 4))
@pytest.mark.parametrize("p", (0.0, 0.3, 0.5, 1.0))
def test_kernels_match_enumeration(p, num_states, lam):
    """The product of per-queue expiry laws gives the exact kernels that the
    enumeration of every joint outcome of a pair gives, for uniform and
    one-hot channel laws."""
    policy = TimerPolicy(p=p, delta_us=9.0, num_states=num_states)
    for pi in (np.full(num_states, 1.0 / num_states), *np.eye(num_states)):
        kt = build_kernels(policy, pi, lam)
        for got, want in zip((kt.ap, kt.sta, kt.both, kt.surv),
                             kernel_enumeration(policy, pi, lam)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("pi", PI_GRID)
@pytest.mark.parametrize("lam", LAMBDA_GRID)
@pytest.mark.parametrize("p", P_GRID)
def test_survival_identity_and_bounds(pi, lam, p):
    kt = make_kernels(pi, lam, p)
    for s in PAIR_STATES:
        assert survival(kt, s, -1) == 1.0
        prev = 1.0
        running = 0.0
        for k in range(kt.t_max + 1):
            running += float(kt.ap[s, k, :k + 1].sum() + kt.sta[s, k, :k + 1].sum()
                             + kt.both[s, k, :k + 1].sum())
            sk = survival(kt, s, k)
            assert abs(sk - (1.0 - running)) < 1e-12
            assert sk <= prev + 1e-15
            prev = sk
        assert ((kt.ap[s] >= -1e-15) & (kt.ap[s] <= 1 + 1e-15)).all()
    assert abs(survival(kt, 3, kt.t_max)) < 1e-12  # full pair must expire


def test_s3_masses_are_state_independent():
    """Within an s3 pair the tie/AP-first/STA-first split is set by p alone."""
    for p in (0.5, 0.2, 0.9):
        kt = make_kernels((0.1, 0.2, 0.3, 0.4), 2e4, p)
        assert abs(kt.both[3].sum() - 2 * p * (1 - p)) < 1e-12
        assert abs(kt.cum_ap[3].sum() - p * p) < 1e-12
        assert abs(kt.sta[3].sum() - (1 - p) * (1 - p)) < 1e-12


def test_s1_no_arrivals_closed_form(policy):
    """With no arrivals the STA never joins: the AP kernel is the bare timer
    law and the tie/STA kernels vanish."""
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    kt = build_kernels(policy, pi, 0.0)
    for l in range(8):
        state = 3 - l // 2
        expect = pi[state] * (policy.p if l % 2 == 0 else 1 - policy.p)
        assert abs(kt.ap[1, l, l] - expect) < 1e-12
    assert kt.sta[1].sum() == 0.0
    assert kt.both[1].sum() == 0.0
    # s0 with no arrivals never expires at all
    assert survival(kt, 0, kt.t_max) == 1.0


def test_s1_joiner_tie_mass():
    """An s1 pair can only tie when the AP draws the odd slot and the STA
    joins in the first slot drawing the even one."""
    p, lam = 0.5, 3e4
    pi = np.full(4, 0.25)
    kt = make_kernels(pi, lam, p)
    q = q_of(lam)
    expect = sum(pi[h] * (1 - p) * q * (1 - p) for h in range(4))
    assert abs(kt.both[1].sum() - expect) < 1e-12


@pytest.mark.parametrize("tag", PAIR_STATES)
def test_kernel_monte_carlo(tag):
    """Empirical single-pair kernels match the exact tables (criterion-#5
    style check at one grid point; the full grid runs in acceptance)."""
    pi, lam, p = (0.05, 0.15, 0.3, 0.5), 3e4, 0.2
    kt = make_kernels(pi, lam, p)
    ap, sta, both, surv = kernel_oracle(900 + tag, 1_000_000, tag, pi, p,
                                        q_of(lam), kt.t_max)
    trials = 1_000_000
    for name, emp, exact in (("ap", ap, kt.ap[tag]), ("sta", sta, kt.sta[tag]),
                             ("both", both, kt.both[tag])):
        z = z_scores(exact, emp, trials)
        assert z.max() < 5.0, f"{name} kernel z={z.max():.2f}"
    z = z_scores([survival(kt, tag, k) for k in range(8)], surv, trials)
    assert z.max() < 5.0


# ------------------------------------------------- system probabilities

def test_p_suc_sta_single_contender(timing):
    """A lone STA-only pair with no arrivals wins every period, at its bare
    timer law (the STA takes the even slot with probability 1 - p)."""
    kt = make_kernels(lam=0.0, p=0.3)
    succ, _ = summaries(kt, timing, 1)[(0, 1, 0)]
    assert np.abs(succ - lone_queue_law(0.7)).max() < 1e-12
    assert abs(succ.sum() - 1.0) < 1e-12


def test_p_suc_ap_single_contender(timing):
    kt = make_kernels(lam=0.0, p=0.3)
    succ, _ = summaries(kt, timing, 1)[(1, 0, 0)]
    assert np.abs(succ - lone_queue_law(0.3)).max() < 1e-12
    assert abs(succ.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_p_suc_ap_matches_config_sum(n, timing):
    """The model's Gauss-Legendre tie-break share equals the explicit
    configuration sum (polynomial exactness)."""
    kt = make_kernels((0.1, 0.4, 0.3, 0.2), 2e4, 0.3)
    model = cycle_models([kt], timing, (0.1,) * 4, n)[0]
    for counts in model.space.counts.tolist():
        for i in PAIR_STATES:
            if counts[i] == 0:
                continue
            others = tuple(counts[j] - (1 if j == i else 0) for j in PAIR_STATES)
            share = model._others_share[CensusSpace(n - 1).lookup[others[1:]]]
            for k in (0, 3, 7):
                for l in range(0, k + 1, 3):
                    a = counts[i] * kt.ap[i, k, l] * share[k]
                    b = p_suc_ap_config_sum(i, k, l, counts, kt)
                    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("inflate", [1.2, 4.0])
def test_negative_collision_mass_names_first_census(inflate, timing):
    """AP kernel mass inflated past the pair survival law leaves a negative
    collision mass; the model refuses it and names the first such census."""
    kt = make_kernels((0.1, 0.4, 0.3, 0.2), 0.0, 0.3)
    bad = KernelTable(kt.policy, kt.lambda_pps, inflate * kt.ap, kt.sta, kt.both,
                      kt.surv)

    def collision_mass(counts, k):
        before = math.prod(survival(bad, j, k - 1) ** counts[j] for j in PAIR_STATES)
        after = math.prod(survival(bad, j, k) ** counts[j] for j in PAIR_STATES)
        wins = sum(p_suc_ap(i, k, l, counts, bad) + p_suc_sta(i, k, l, counts, bad)
                   for i in PAIR_STATES for l in range(k + 1))
        return before - after - wins

    first = next(c for c in enumerate_censuses(3)
                 if min(collision_mass((3 - sum(c),) + c, k) for k in range(8)) < -1e-9)
    message = r"negative collision mass .* census " + re.escape(str(first))
    with pytest.raises(ConsistencyError, match=message):
        cycle_models([bad], timing, (0.1,) * 4, 3)


@pytest.mark.parametrize("pi", [(np.nan, 0.5, 0.25, 0.25), (0.25, 0.25, 0.25, np.nan)])
def test_build_kernels_refuses_nan_channel_law(pi):
    """A NaN entry of pi fails the probability-vector check."""
    with pytest.raises(ParameterError, match="probability vector"):
        make_kernels(pi, 20.0)


def test_p_col_single_s3_is_tie_mass(timing):
    """With one full pair the only collision source is its internal tie."""
    kt = make_kernels(lam=7e3)
    _, col = summaries(kt, timing, 1)[(0, 0, 1)]
    for k in range(8):
        expect = float(kt.both[3, k, :k + 1].sum())
        assert abs(col[k] - expect) < 1e-12


def test_p_col_zero_for_single_contender(timing):
    kt = make_kernels(lam=0.0)
    _, col = summaries(kt, timing, 1)[(1, 0, 0)]
    assert (col == 0.0).all()


def test_p_col_range_check():
    kt = make_kernels()
    with pytest.raises(ParameterError):
        p_col(8, (0, 0, 0, 1), kt)


@pytest.mark.parametrize("pi", PI_GRID[:2])
@pytest.mark.parametrize("lam", (0.0, 3e4))
def test_completeness(pi, lam, timing):
    """Any census with a queue backlogged at the period start resolves by
    t_max: success plus collision mass is exactly 1."""
    kt = make_kernels(pi, lam, 0.5)
    for n in (1, 2, 3):
        for census, (succ, col) in summaries(kt, timing, n).items():
            if census == (0, 0, 0):
                continue
            total = succ.sum() + col.sum()
            assert abs(total - 1.0) < 1e-9, (census, total)


def test_system_monte_carlo_spot():
    """System-level win/collision probabilities vs a two-pair Monte-Carlo."""
    pi, lam, p = (0.25,) * 4, 3e4, 0.5
    kt = make_kernels(pi, lam, p)
    counts = (0, 0, 0, 2)
    trials = 1_000_000
    mc = system_oracle(77, trials, counts, pi, p, q_of(lam), kt.t_max)
    exact_ap = np.zeros((4, 8, 8))
    exact_sta = np.zeros((4, 8, 8))
    exact_col = np.array([p_col(k, counts, kt) for k in range(8)])
    for i in PAIR_STATES:
        for k in range(8):
            for l in range(k + 1):
                exact_ap[i, k, l] = p_suc_ap(i, k, l, counts, kt)
                exact_sta[i, k, l] = p_suc_sta(i, k, l, counts, kt)
    for exact, emp in ((exact_ap, mc["suc_ap"]), (exact_sta, mc["suc_sta"]),
                       (exact_col, mc["col"])):
        z = z_scores(exact, emp, trials)
        assert z.max() < 5.0, z.max()
    # aggregate example: total STA success mass within 3 se
    tot_exact = exact_sta.sum()
    tot_emp = mc["suc_sta"].sum()
    se = math.sqrt(tot_exact * (1 - tot_exact) / trials)
    assert abs(tot_emp - tot_exact) <= 3 * se


# --------------------------------------------------------- minislot wins

def test_p_hat_tagged_never_contends():
    kt = make_kernels(lam=0.0)
    others = (0, 1, 0, 1)
    per = (0.1,) * 4
    assert p_hat_minislot(AP, 0, others, kt, per) == 0.0
    assert p_hat_minislot(STA, 0, others, kt, per) == 0.0


def test_p_hat_lone_pair_tie_complement():
    """Tagged full pair against empty pairs: wins split p^2 / (1-p)^2 and the
    tie mass 2p(1-p) is the only loss (no errors, no arrivals)."""
    for p in (0.5, 0.3):
        policy = TimerPolicy(p=p, delta_us=9.0, num_states=4)
        kt = build_kernels(policy, np.full(4, 0.25), 0.0)
        others = (2, 0, 0, 0)
        per = (0.0,) * 4
        pa = p_hat_minislot(AP, 3, others, kt, per)
        ps = p_hat_minislot(STA, 3, others, kt, per)
        assert abs(pa - p * p) < 1e-12
        assert abs(ps - (1 - p) * (1 - p)) < 1e-12
        assert abs((pa + ps) - (1 - 2 * p * (1 - p))) < 1e-12


def test_p_hat_monte_carlo_n7():
    """Tagged s1 pair among six occupied pairs, error-weighted."""
    pi, lam, p = (0.25,) * 4, 5e3, 0.5
    per = (0.1, 0.1, 0.1, 0.1)
    kt = make_kernels(pi, lam, p)
    others = (0, 2, 2, 2)
    exact_ap = p_hat_minislot(AP, 1, others, kt, per)
    exact_sta = p_hat_minislot(STA, 1, others, kt, per)
    trials = 1_000_000
    counts = (0, 3, 2, 2)  # tagged s1 pair listed first within its class
    mc = system_oracle(4242, trials, counts, pi, p, q_of(lam), kt.t_max, per)
    for exact, emp in ((exact_ap, mc["phat_ap"][1]), (exact_sta, mc["phat_sta"][1])):
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
        assert abs(emp - exact) <= 4 * se, (exact, emp)


def test_p_hat_bad_side():
    kt = make_kernels()
    with pytest.raises(ParameterError):
        p_hat_minislot("both", 3, (0, 0, 0, 0), kt, (0.1,) * 4)


# ------------------------------------------------------------ transitions

# The transition references below are what tests/test_operator.py pins the
# model's census operator to; these checks tie them to first principles.

def test_transition_zero_window():
    counts = (1, 1, 1, 0)
    assert transition_prob(counts, (0, 0, 0, 0, 0), 0.0, 50.0) == 1.0
    assert transition_prob(counts, (1, 0, 0, 0, 0), 0.0, 50.0) == 0.0


def test_transition_saturating_window():
    counts = (1, 1, 1, 0)
    # enormous window: every queue fills, all pairs land in s3
    p = transition_prob(counts, (1, 1, 0, 0, 1), 1e12, 50.0)
    assert abs(p - 1.0) < 1e-9


def test_transition_enumeration_oracle():
    """N=2 from (1,0,0): exact product of three per-queue Bernoulli draws."""
    counts = (1, 1, 0, 0)
    lam, t = 50.0, 2000.0
    pr = -math.expm1(-lam * 1e-6 * t)
    total = 0.0
    for deltas, dest in transition_deltas(counts):
        a, b, c, d, e = deltas
        got = transition_prob(counts, deltas, t, lam)
        # queues empty at the start: STA of the s1 pair (fills with prob pr),
        # and both queues of the empty pair
        expect = ((pr if a else 1 - pr)
                  * (pr * (1 - pr) if c else 1.0)
                  * ((1 - pr) * pr if d else 1.0)
                  * (pr * pr if e else 1.0)
                  * ((1 - pr) ** 2 if (c, d, e) == (0, 0, 0) else 1.0))
        assert abs(got - expect) < 1e-12
        total += got
        assert dest == (1 - a + c, d, a + e)
    assert abs(total - 1.0) < 1e-12


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.floats(0.0, 1e5), st.floats(0.0, 200.0))
@settings(max_examples=80, deadline=None)
def test_transition_mass_sums_to_one(k1, k2, k3, t_us, lam):
    counts = (1, k1, k2, k3)
    total = sum(transition_prob(counts, deltas, t_us, lam)
                for deltas, _ in transition_deltas(counts))
    assert abs(total - 1.0) < 1e-9


def test_transition_out_of_range_deltas_are_impossible():
    counts = (1, 1, 0, 0)
    assert transition_prob(counts, (2, 0, 0, 0, 0), 100.0, 10.0) == 0.0
    assert transition_prob(counts, (0, 0, 1, 1, 0), 100.0, 10.0) == 0.0


def test_pair_transition_rows_sum_to_one():
    for state in PAIR_STATES:
        probs = pair_transition_probs(state, 500.0, 40.0)
        assert abs(sum(probs.values()) - 1.0) < 1e-12
        # occupancy never decreases
        assert all(dst >= state or (state, dst) in ((1, 3), (2, 3))
                   for dst in probs if state != 0)


# ------------------------------------------------------------------ misc

def test_p_suc_sta_empty_census_no_arrivals(timing):
    """All-empty census with no arrivals: nobody ever wins or collides (the
    empty pairs never join)."""
    kt = make_kernels(lam=0.0)
    succ, col = summaries(kt, timing, 2)[(0, 0, 0)]
    assert (succ == 0.0).all() and (col == 0.0).all()


def test_gauss_legendre_rule_matches_numpy():
    """The local Gauss-Legendre rule is numpy's ``leggauss`` bit for bit, for
    1 to 64 points."""
    for m in range(1, 65):
        x, w = _leggauss(m)
        want_x, want_w = np.polynomial.legendre.leggauss(m)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w), m


def test_analyze_leaves_numpy_polynomial_unimported(tmp_path):
    """An analyze in a fresh interpreter takes its Gauss-Legendre nodes
    without importing ``numpy.polynomial``."""
    code = (
        "import sys\n"
        "from oppmac.cli import main\n"
        "from oppmac.kernels import _gl_nodes\n"
        f"code = main(['analyze', '--set', 'system.n_stations=4', '--lambda', '20',"
        f" '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, _gl_nodes.cache_info().misses, 'numpy.polynomial' in sys.modules)\n")
    src = Path(kernels.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 1 False"
