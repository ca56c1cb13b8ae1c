import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppmac import (
    ParameterError,
    SystemConfig,
    TimerPolicy,
    build_kernels,
    cycle_models,
    fixed_points,
)
from oppmac.analysis import CensusSpace

from oracles import (
    capacity_search,
    census_prior,
    pair_state_probs,
    renewal_system,
    tagged_prior,
)


def make_model(n, lam, pi=(0.25,) * 4, p=0.5, per=(0.1,) * 4, timing=None):
    policy = TimerPolicy(p=p, delta_us=9.0, num_states=4)
    kt = build_kernels(policy, np.asarray(pi), lam)
    return cycle_models([kt], timing, per, n)[0]


# ----------------------------------------------------------------- priors

def model_census_prior(p_a, p_s, n):
    """{(k1, k2, k3): probability} as the model weights its census vectors."""
    space = CensusSpace(n)
    return dict(zip(space.censuses, space.prior(p_a, p_s).tolist()))


def test_census_prior_corners():
    for probs in (census_prior, model_census_prior):
        assert probs(0.0, 0.0, 5)[(0, 0, 0)] == 1.0
        assert probs(1.0, 1.0, 5)[(0, 0, 5)] == 1.0
    for p_a, p_s in ((-0.1, 0.5), (0.5, 1.5), (math.nan, 0.5)):  # not probabilities
        with pytest.raises(ParameterError, match="must lie in"):
            model_census_prior(p_a, p_s, 3)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_census_prior_normalizes_and_marginals(p_a, p_s, n):
    probs = model_census_prior(p_a, p_s, n)
    want = census_prior(p_a, p_s, n)
    assert probs.keys() == want.keys()
    censuses = list(want)  # compared census by census, whatever the model's order
    np.testing.assert_allclose([probs[c] for c in censuses], [want[c] for c in censuses],
                               rtol=1e-13, atol=1e-300)
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    # per-pair AP marginal: k1 + k3 occupied AP queues out of n
    ap_marginal = sum(p * (k1 + k3) for (k1, k2, k3), p in probs.items()) / n
    assert abs(ap_marginal - p_a) < 1e-9


def test_tagged_prior_consistency():
    """A tagged pair in state i with the others in census o lumps onto the
    census c = o + e_i of all pairs with probability P_N(c) k_i / N, so the
    model weights its per-census win vectors by P_N(c) / N alone."""
    probs = tagged_prior(0.3, 0.6, 7)
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    space = CensusSpace(7)
    lumped = np.zeros((4, len(space.censuses)))
    for (i, *others), p in probs.items():
        census = [others[j - 1] + (j == i) for j in (1, 2, 3)]
        lumped[i, space.lookup[tuple(census)]] += p
    want = space.prior(0.3, 0.6) * space.counts.T / 7
    np.testing.assert_allclose(lumped, want, rtol=1e-13, atol=1e-300)
    by_class = {}
    for (i, *_), p in probs.items():
        by_class[i] = by_class.get(i, 0.0) + p
    rho = pair_state_probs(0.3, 0.6)
    for i in range(4):
        assert abs(by_class[i] - rho[i]) < 1e-12


# --------------------------------------------------------- renewal system

def test_empty_census_idle_term(timing):
    """E[R | empty] minus its successor terms is the first-arrival wait
    1/(2 N lambda)."""
    n, lam = 7, 10.0
    model = make_model(n, lam, timing=timing)
    x = model.renewal_by_census
    at = model.space.lookup
    idle = x[at[0, 0, 0]] - 0.5 * x[at[1, 0, 0]] - 0.5 * x[at[0, 1, 0]]
    assert abs(idle - 1.0 / (2 * n * lam * 1e-6)) < 1e-6


def test_single_queue_renewal_closed_form(timing):
    """N=1, AP queue only, no arrivals, no errors: hand enumeration over the
    eight (state, parity) timer outcomes."""
    pi = (0.1, 0.2, 0.3, 0.4)
    p = 0.5
    model = make_model(1, 0.0, pi=pi, p=p, per=(0.0,) * 4, timing=timing)
    expect = 0.0
    for state, weight in enumerate(pi):
        base = 2 * (4 - 1 - state)
        for slot, wp in ((base, p), (base + 1, 1 - p)):
            expect += weight * wp * (slot * 9.0 + timing.per_state_tx_us[state])
    got = model.renewal_by_census[model.space.lookup[1, 0, 0]]
    assert abs(got - expect) < 1e-9


def test_single_queue_renewal_with_errors(timing):
    """PER > 0 multiplies the per-attempt cost by the geometric retry count."""
    pi = (0.25,) * 4
    e = 0.1
    model = make_model(1, 0.0, pi=pi, per=(e,) * 4, timing=timing)
    per_attempt = 0.0
    for state, weight in enumerate(pi):
        base = 2 * (4 - 1 - state)
        for slot, wp in ((base, 0.5), (base + 1, 0.5)):
            per_attempt += weight * wp * (slot * 9.0 + timing.per_state_tx_us[state])
    got = model.renewal_by_census[model.space.lookup[1, 0, 0]]
    assert abs(got - per_attempt / (1 - e)) < 1e-9


def test_model_rejects_mismatched_slot(timing):
    """The model windows count the kernels' slot, so a timing with another
    slot length is refused rather than silently mixed in."""
    kt = build_kernels(TimerPolicy(delta_us=20.0), np.full(4, 0.25), 40.0)
    with pytest.raises(ParameterError, match="slot"):
        cycle_models([kt], timing, (0.1,) * 4, 2)


def test_lambda_zero_empty_census_is_infinite(timing):
    model = make_model(2, 0.0, timing=timing)
    vec = dict(zip(model.space.censuses, model.renewal_by_census.tolist()))
    assert math.isinf(vec[(0, 0, 0)])
    # the prior puts mass on the empty census
    assert math.isinf(model.throughput(0.5, 0.5)[2])
    assert all(v > 0 for c, v in vec.items() if c != (0, 0, 0))


def test_renewal_residuals_and_positivity(timing):
    model = make_model(4, 45.0, timing=timing)
    x = model.renewal_by_census
    # residual against the scalar census system Y = c + M Y, whose columns
    # are the two sides' win probabilities and E[R]
    m, c = renewal_system(model)
    y = np.column_stack([model.win_by_census, x])
    assert np.abs(y - m @ y - c).max() < 1e-9
    assert (x > 0).all()
    # at light load the empty census dominates every other expectation
    assert x[model.space.lookup[0, 0, 0]] == x.max()


def test_expected_renewal_prior_weighting(timing):
    model = make_model(3, 30.0, timing=timing)
    assert abs(model.throughput(0.0, 0.0)[2]
               - model.renewal_by_census[model.space.lookup[0, 0, 0]]) < 1e-9


# ------------------------------------------------------ win probabilities

def test_tagged_single_pair_closed_forms(timing):
    """N=1, no arrivals: the full pair splits wins by parity with error
    retries; a lone AP queue eventually always wins."""
    p, e = 0.5, 0.1
    model = make_model(1, 0.0, p=p, per=(e,) * 4, timing=timing)
    # N = 1: the census is the one pair's state
    of_state = [model.space.lookup[c] for c in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))]
    y_ap, y_sta = model.win_by_census[of_state].T
    x3 = p * p * (1 - e) / (1 - e * (p * p + (1 - p) * (1 - p)) - 2 * p * (1 - p))
    assert abs(y_ap[3] - x3) < 1e-9
    assert abs(y_sta[3] - x3) < 1e-9  # symmetric at p = 1/2
    assert abs(y_ap[1] - 1.0) < 1e-9
    assert y_sta[1] == 0.0
    assert y_ap[2] == 0.0
    assert abs(y_sta[2] - 1.0) < 1e-9
    # empty system with no arrivals never produces a winner
    assert y_ap[0] == 0.0 and y_sta[0] == 0.0


def test_tagged_equal_split_n1(timing):
    """At p = 1/2 and a symmetric prior, a single pair splits wins evenly
    (no cross-pair AP merge exists at N = 1)."""
    model = make_model(1, 25.0, timing=timing)
    pa, ps = model.throughput(0.4, 0.4)[3:]
    assert abs(pa - ps) < 1e-9
    assert abs(1 * (pa + ps) - 1.0) < 1e-6


@pytest.mark.parametrize("n,lam", [(1, 15.0), (2, 30.0), (3, 55.0), (7, 60.0)])
def test_renewal_identity_every_prior(n, lam, timing):
    """Exactly one success per cycle: N (pbar_a + pbar_s) = 1 at any prior."""
    model = make_model(n, lam, timing=timing)
    for p_a in (0.05, 0.3, 0.8):
        for p_s in (0.1, 0.6, 0.95):
            pa, ps = model.throughput(p_a, p_s)[3:]
            assert abs(n * (pa + ps) - 1.0) < 1e-6


@pytest.mark.parametrize("n", [1, 7, 15])
@pytest.mark.parametrize("lam", [0.0, 80.0, 400.0])
def test_win_probabilities_sum_to_one_per_census(n, lam, timing):
    """Exactly one queue wins each cycle that ends, so the two sides' win
    probabilities sum to 1 at every census, far inside the model's 1e-9
    check; with no arrivals the empty census never ends and nobody wins."""
    model = make_model(n, lam, per=(0.1, 0.25, 0.0, 0.4), timing=timing)
    total = model.win_by_census.sum(axis=1)
    ends = np.isfinite(model.renewal_by_census)
    assert np.abs(total[ends] - 1.0).max() <= 1e-13
    assert total[~ends].tolist() == ([0.0] if lam == 0.0 else [])


# ------------------------------------------------------------ fixed point

def test_fixed_point_light_traffic(space, timing, uniform_pi):
    cfg = SystemConfig(n_stations=7, pi=(0.25,) * 4)
    sol, = fixed_points([1.0], cfg, TimerPolicy(), uniform_pi, timing)
    assert sol.converged
    assert sol.p_a < 0.002 and sol.p_s < 0.002
    assert abs(sol.theta_ap_pps - 1.0) / 1.0 < 1e-3
    assert abs(sol.expected_renewal_us - 1.0 / (2 * 7 * 1e-6)) / sol.expected_renewal_us < 1e-3
    assert sol.identity_error < 1e-6
    # throughput fields are consistent with their definition
    assert abs(sol.theta_ap_pps - sol.pbar_a / sol.expected_renewal_us * 1e6) < 1e-9


def test_fixed_point_rejects_zero_rate(space, timing, uniform_pi):
    cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4)
    with pytest.raises(ParameterError):
        fixed_points([0.0], cfg, TimerPolicy(), uniform_pi, timing)


def test_fixed_point_deterministic(timing, uniform_pi):
    cfg = SystemConfig(n_stations=3, pi=(0.25,) * 4)
    a = fixed_points([40.0], cfg, TimerPolicy(), uniform_pi, timing)
    b = fixed_points([40.0], cfg, TimerPolicy(), uniform_pi, timing)
    assert a == b


def test_fixed_point_monotone_occupancy(timing, uniform_pi):
    cfg = SystemConfig(n_stations=7, pi=(0.25,) * 4)
    sols = fixed_points((20.0, 40.0, 60.0, 80.0), cfg, TimerPolicy(), uniform_pi, timing)
    assert all(s.converged for s in sols)
    ps = [s.p_s for s in sols]
    assert all(b > a for a, b in zip(ps, ps[1:]))


def test_throughput_continuity_on_prior_grid(timing, uniform_pi):
    """Theta varies smoothly over the occupancy prior: each sample sits
    within 1% of the local linear trend (no solver-induced jumps)."""
    model = make_model(3, 50.0, timing=timing)
    thetas = np.array([model.throughput(0.2, float(ps))[1]
                       for ps in np.arange(0.05, 0.501, 0.01)])
    interp = (thetas[:-2] + thetas[2:]) / 2.0
    rel_kink = np.abs(thetas[1:-1] - interp) / thetas[1:-1]
    assert rel_kink.max() < 0.01


def test_capacity_search_reference_setup(timing, uniform_pi):
    """Converges through 80 and the failure onset sits in [85, 100]."""
    cfg = SystemConfig(n_stations=7, pi=(0.25,) * 4)
    cap, sols = capacity_search(cfg, TimerPolicy(), uniform_pi, timing,
                                [20.0, 40.0, 60.0, 80.0])
    assert cap == 80.0
    assert all(s.converged for s in sols)


def test_capacity_search_empty_grid(timing, uniform_pi):
    cfg = SystemConfig(n_stations=2, pi=(0.25,) * 4)
    cap, sols = capacity_search(cfg, TimerPolicy(), uniform_pi, timing, [])
    assert cap is None and sols == []


def test_capacity_monotone_in_per(timing, uniform_pi):
    """Raising the packet error rate cannot raise capacity."""
    grid = [20.0, 40.0, 60.0, 80.0, 90.0]
    caps = {}
    for per in (0.1, 0.5):
        cfg = SystemConfig(n_stations=3, pi=(0.25,) * 4,
                           per_state_per=(per,) * 4)
        caps[per], _ = capacity_search(cfg, TimerPolicy(), uniform_pi, timing, grid)
    assert caps[0.5] is None or caps[0.5] <= caps[0.1]
