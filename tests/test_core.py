import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppmac import (
    AP,
    STA,
    ChannelSpace,
    MacTiming,
    ParameterError,
    SystemConfig,
    TimerPolicy,
    state_probabilities,
)
from oppmac.core import ack_airtime_us, data_airtime_us


def test_table_defaults_exact(space):
    assert space.thresholds_db == (0.0, 19.11, 26.90, 31.88)
    assert space.rates_mbps == (12.0, 24.0, 48.0, 54.0)
    assert space.num_states == 4


def test_channel_space_validation():
    with pytest.raises(ParameterError):
        ChannelSpace(thresholds_db=(0.0, 5.0), rates_mbps=(12.0,))
    with pytest.raises(ParameterError):
        ChannelSpace(thresholds_db=(1.0, 5.0, 9.0, 12.0), rates_mbps=(1, 2, 3, 4))
    with pytest.raises(ParameterError):
        ChannelSpace(thresholds_db=(0.0, 9.0, 5.0, 12.0), rates_mbps=(1, 2, 3, 4))
    with pytest.raises(ParameterError):
        ChannelSpace(thresholds_db=(0.0, 5.0, 9.0, 12.0), rates_mbps=(4, 3, 2, 1))


def test_state_probabilities_limits(space):
    hi = state_probabilities(space, 80.0)  # essentially infinite mean
    assert hi[-1] > 0.999
    lo = state_probabilities(space, -30.0)
    assert lo[0] > 0.999


@given(st.floats(min_value=-20.0, max_value=60.0))
@settings(max_examples=50, deadline=None)
def test_state_probabilities_is_distribution(mean_db):
    pi = state_probabilities(ChannelSpace(), mean_db)
    assert abs(pi.sum() - 1.0) < 1e-12
    assert (pi >= 0).all()


def test_state_probabilities_rejects_nonfinite(space):
    """A mean whose linear form is not finite and positive is refused."""
    for bad in (math.nan, math.inf, -math.inf, 4000.0, -4000.0):
        with pytest.raises(ParameterError) as err:
            state_probabilities(space, bad)
        assert err.value.field == "mean_ebn0_db"


def test_state_probabilities_monte_carlo(space):
    """Quantizing 1e7 exponential draws must reproduce the closed form."""
    mean_db = 25.0
    pi = state_probabilities(space, mean_db)
    rng = np.random.Generator(np.random.PCG64(2024))
    n = 10_000_000
    draws = rng.exponential(10.0 ** (mean_db / 10.0), size=n)
    edges = space.thresholds_linear()[1:]
    states = np.searchsorted(edges, draws, side="right")
    freq = np.bincount(states, minlength=4) / n
    se = np.sqrt(pi * (1 - pi) / n)
    assert (np.abs(freq - pi) <= 3 * se + 1e-9).all()


def test_timer_supports_partition(policy):
    """Across states the draw sets tile {0..2|H|-1} with no overlap."""
    seen = []
    for i in range(policy.num_states):
        for side in (AP, STA):
            assert set(policy.slot_probs(i, side)) == {
                policy.base_slot(i), policy.base_slot(i) + 1}
        seen.extend(policy.slot_probs(i, AP))
    assert sorted(seen) == list(range(2 * policy.num_states))
    assert policy.t_max == 2 * policy.num_states - 1


def test_timer_best_state_slots(policy):
    """Best channel state draws from {0, 1} with probability p / 1-p."""
    probs = policy.slot_probs(3, AP)
    assert probs == {0: 0.5, 1: 0.5}


def test_timer_degenerate_p():
    pol = TimerPolicy(p=1.0, delta_us=9.0, num_states=4)
    assert pol.slot_probs(0, AP) == {6: 1.0, 7: 0.0}
    assert pol.slot_probs(0, STA) == {6: 0.0, 7: 1.0}


@pytest.mark.parametrize("delta_us", [0.0, -9.0, float("nan"), float("inf")])
def test_timer_rejects_bad_slot_length(delta_us):
    with pytest.raises(ParameterError, match="slot length"):
        TimerPolicy(p=0.5, delta_us=delta_us, num_states=4)


def test_timer_draw_frequency():
    """The AP side takes the even slot of the state's two-slot set with
    probability p, the STA side with 1 - p."""
    pol = TimerPolicy(p=0.3, delta_us=9.0, num_states=4)
    assert pol.base_slot(2) == 2
    assert pol.slot_probs(2, AP) == {2: 0.3, 3: 0.7}
    assert pol.slot_probs(2, STA) == {2: 0.7, 3: 1.0 - 0.7}


def test_airtime_hand_check():
    """1500 B at 12 Mbps: 16+6 service/tail + 8*(1500+28) data bits over
    48 bits/symbol -> 256 symbols -> 1024 us + 20 us preamble."""
    assert data_airtime_us(1500, 12.0) == 20.0 + 256 * 4.0
    assert data_airtime_us(1500, 54.0) == 20.0 + 57 * 4.0
    # ACK: 14 bytes at 24 Mbps -> 2 symbols
    assert ack_airtime_us() == 20.0 + 2 * 4.0


def test_mac_timing_values(space, timing):
    assert timing.per_state_tx_us == (1122.0, 610.0, 354.0, 326.0)
    assert timing.collision_us == 1044.0 + 34.0
    # airtime monotonicity: higher rate, strictly shorter
    tx = timing.per_state_tx_us
    assert all(b < a for a, b in zip(tx, tx[1:]))
    assert timing.data_airtime(0) == 1044.0


def test_mac_timing_validation(space):
    with pytest.raises(ParameterError) as err:
        MacTiming(slot_us=9, difs_us=34, sifs_us=16, ack_us=28,
                  per_state_tx_us=(200.0, 100.0), collision_us=0.0)
    assert err.value.field == "collision_us"


def test_mac_timing_accepts_every_short_payload(space):
    """Up to 161 B many frames take as many OFDM symbols at 48 as at 54 Mbps;
    the equal per-state costs are valid, and no cost grows with the state."""
    for payload in range(1, 201):
        tx = MacTiming.dot11a(space, payload_bytes=payload).per_state_tx_us
        assert all(b <= a for a, b in zip(tx, tx[1:])), payload
    assert MacTiming.dot11a(space, payload_bytes=64).per_state_tx_us[2:] == (114.0, 114.0)


def test_system_config_validation():
    with pytest.raises(ParameterError):
        SystemConfig(n_stations=0, pi=(1.0, 0, 0, 0))
    with pytest.raises(ParameterError):
        SystemConfig(n_stations=1)  # no channel mode
    with pytest.raises(ParameterError):
        SystemConfig(n_stations=1, pi=(0.5, 0.5, 0.1, 0.0))
    with pytest.raises(ParameterError):
        SystemConfig(n_stations=1, pi=(0.25,) * 4, mean_ebn0_db=20.0)
    cfg = SystemConfig(n_stations=2, mean_ebn0_db=25.0)
    pi = cfg.resolve_pi(ChannelSpace())
    assert abs(pi.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("pi", [(math.nan, 0.5, 0.25, 0.25), (0.25, 0.25, 0.25, math.nan)])
def test_system_config_refuses_nan_channel_law(pi):
    """A NaN state probability fails the sign check and the sum check, both
    written so that NaN does not pass them."""
    with pytest.raises(ParameterError, match="state probabilities"):
        SystemConfig(n_stations=2, pi=pi)


def test_draw_timer_bad_side(policy):
    with pytest.raises(ParameterError, match="side"):
        policy.slot_probs(1, "apsta")
