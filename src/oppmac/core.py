"""Shared domain types for the opportunistic WLAN MAC.

Channel quantization, the randomized SNR-to-backoff-slot mapping, 802.11a
MAC/PHY timing, and the system configuration consumed by both the analytical
model and the simulator.

Conventions used throughout the package:
  * channel states are 0-based, 0 = worst, ``num_states - 1`` = best,
  * backoff timers are counted in slots of ``delta_us`` microseconds,
  * a state-``i`` queue draws its timer from the two-slot set
    {b(i), b(i)+1} with b(i) = 2*(num_states - 1 - i),
  * all durations are microseconds, all rates packets/second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

AP = "ap"
STA = "sta"


class ParameterError(ValueError):
    """Invalid configuration or operation parameter; ``field`` names the
    offending field of a domain type, when there is one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ChannelSpace:
    """Quantized channel: Eb/N0 bins (dB) mapped to PHY data rates (Mbps).

    ``thresholds_db[i]`` is the lower edge of state i; the first edge is 0 dB
    and the lowest state absorbs everything below it (the bin is open below,
    so a state distribution over the space always sums to 1).
    """

    thresholds_db: tuple[float, ...] = (0.0, 19.11, 26.90, 31.88)
    rates_mbps: tuple[float, ...] = (12.0, 24.0, 48.0, 54.0)

    def __post_init__(self):
        if len(self.thresholds_db) != len(self.rates_mbps):
            raise ParameterError("thresholds and rates must have equal length",
                                 "rates_mbps")
        if len(self.rates_mbps) < 1:
            raise ParameterError("at least one channel state required", "rates_mbps")
        if self.thresholds_db[0] != 0.0:
            raise ParameterError("first Eb/N0 threshold must be 0 dB", "thresholds_db")
        if any(b >= a for b, a in zip(self.thresholds_db, self.thresholds_db[1:])):
            raise ParameterError("thresholds must be strictly ascending", "thresholds_db")
        if any(b >= a for b, a in zip((0.0, *self.rates_mbps), self.rates_mbps)):
            raise ParameterError("rates must be positive and strictly ascending",
                                 "rates_mbps")

    @property
    def num_states(self) -> int:
        return len(self.rates_mbps)

    def thresholds_linear(self) -> np.ndarray:
        """Linear-scale lower bin edges; the first edge is 0 (open below)."""
        edges = [db_to_linear(t, "thresholds_db") for t in self.thresholds_db]
        edges[0] = 0.0
        return np.asarray(edges)


def db_to_linear(db: float, field: str) -> float:
    """10^(db/10); a ParameterError on ``field`` unless finite and positive."""
    try:
        x = 10.0 ** (db / 10.0)
    except OverflowError:  # past the float range
        x = math.inf
    if not 0.0 < x < math.inf:
        raise ParameterError(f"{db!r} dB has no finite positive linear value", field)
    return x


def check_rate(lambda_pps: float) -> None:
    """Refuses an arrival rate that is negative or not finite."""
    if not (math.isfinite(lambda_pps) and lambda_pps >= 0.0):
        raise ParameterError(f"arrival rate must be finite and nonnegative, "
                             f"got {lambda_pps!r}")


WARMUP_FRAC = 0.05  # warmup share of a simulated duration


def check_duration(duration_us: float) -> None:
    """Refuses a simulated duration that is not finite or whose measured
    window, the part after the warmup, is not positive in seconds."""
    if not (math.isfinite(duration_us)
            and (duration_us - WARMUP_FRAC * duration_us) * 1e-6 > 0.0):
        raise ParameterError(f"duration must be finite and leave a positive "
                             f"measured window, got {duration_us!r} us")


def state_probabilities(space: ChannelSpace, mean_ebn0_db: float) -> np.ndarray:
    """State distribution for Rayleigh fading with the given mean Eb/N0.

    The instantaneous Eb/N0 is exponential with the linear-scale mean, so
    pi_i = exp(-t_i/mu) - exp(-t_{i+1}/mu) with t_i the linear bin edges and
    t_{|H|} = infinity.
    """
    mu = db_to_linear(mean_ebn0_db, "mean_ebn0_db")
    edges = space.thresholds_linear()
    upper = np.append(edges[1:], np.inf)
    pi = np.exp(-edges / mu) - np.exp(-upper / mu)
    return pi


@dataclass(frozen=True)
class TimerPolicy:
    """Randomized channel-state-to-backoff mapping.

    A queue seeing state i draws its timer from {b(i), b(i)+1} slots with
    b(i) = 2*(num_states - 1 - i).  The AP side takes the even slot with
    probability ``p``, the STA side with probability ``1 - p``, which keeps
    the two sides of one reciprocal link from always colliding.
    """

    p: float = 0.5
    delta_us: float = 9.0
    num_states: int = 4

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ParameterError(f"p must be in [0, 1], got {self.p}", "p")
        if not (math.isfinite(self.delta_us) and self.delta_us > 0):
            raise ParameterError(f"slot length must be finite and positive, "
                                 f"got {self.delta_us!r}", "delta_us")
        if self.num_states < 1:
            raise ParameterError("need at least one channel state", "num_states")

    @property
    def t_max(self) -> int:
        return 2 * self.num_states - 1

    def base_slot(self, state: int) -> int:
        self._check_state(state)
        return 2 * (self.num_states - 1 - state)

    def slot_probs(self, state: int, side: str) -> dict[int, float]:
        """Timer pmf over backoff slots for one side in one channel state."""
        if side not in (AP, STA):
            raise ParameterError(f"side must be {AP!r} or {STA!r}, got {side!r}")
        b = self.base_slot(state)
        p_even = self.p if side == AP else 1.0 - self.p
        return {b: p_even, b + 1: 1.0 - p_even}

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.num_states:
            raise ParameterError(f"state {state} outside 0..{self.num_states - 1}")


OFDM_SYMBOL_US = 4.0
PHY_OVERHEAD_US = 20.0  # 802.11a preamble + PLCP header
SERVICE_TAIL_BITS = 16 + 6  # PLCP service field + tail bits
SLOT_US = 9.0
SIFS_US = 16.0
ACK_BYTES = 14
ACK_RATE_MBPS = 24.0


def data_airtime_us(payload_bytes: int, rate_mbps: float,
                    mac_header_bytes: int = 28) -> float:
    """802.11a frame airtime: preamble plus whole OFDM symbols."""
    bits = SERVICE_TAIL_BITS + 8 * (payload_bytes + mac_header_bytes)
    bits_per_symbol = rate_mbps * OFDM_SYMBOL_US
    return PHY_OVERHEAD_US + math.ceil(bits / bits_per_symbol) * OFDM_SYMBOL_US


def ack_airtime_us() -> float:
    return data_airtime_us(ACK_BYTES, ACK_RATE_MBPS, mac_header_bytes=0)


@dataclass(frozen=True)
class MacTiming:
    """Single source of MAC/PHY durations for analysis and simulation.

    ``per_state_tx_us[i]`` is the full cost of one successful transmission in
    channel state i: data airtime + SIFS + ACK + DIFS, so that summing one
    such term per attempt accounts for every interframe gap in a cycle.
    ``collision_us`` is the constant charged per collision (airtime the
    channel is blocked plus the trailing DIFS).  No order of the per-state
    costs is required: with short payloads two states can cost the same.
    """

    slot_us: float
    difs_us: float
    sifs_us: float
    ack_us: float
    per_state_tx_us: tuple[float, ...]
    collision_us: float

    def __post_init__(self):
        if self.collision_us <= 0:
            raise ParameterError("collision duration must be positive", "collision_us")

    @classmethod
    def dot11a(cls, space: ChannelSpace, payload_bytes: int = 1500,
               collision_rate_mbps: float | None = None,
               slot_us: float = SLOT_US) -> "MacTiming":
        """Standard 802.11a timing for the given channel space.

        ``slot_us`` is the backoff slot; a scenario passes its timer policy's
        ``delta_us``, so analysis and both simulators count one slot length.
        DIFS (SIFS plus two slots) and the EIFS built from it follow it.

        ``collision_rate_mbps`` sets the airtime assumed lost per collision;
        by default the lowest PHY rate of the space (the conservative,
        EIFS-like choice: every station defers as if the garbled frame were a
        longest, lowest-rate one).

        A frame airtime that is not finite is a ParameterError on the field
        that makes it so: the payload when it is too long at every rate, else
        the PHY rate or the collision rate.
        """
        if payload_bytes <= 0:
            raise ParameterError("payload must be positive", "payload_bytes")
        col_rate = space.rates_mbps[0] if collision_rate_mbps is None else collision_rate_mbps
        if not col_rate > 0.0:
            raise ParameterError("collision rate must be positive", "collision_rate_mbps")

        def airtime(rate: float, field: str) -> float:
            try:
                us = data_airtime_us(payload_bytes, rate)
            except OverflowError:  # a bit or symbol count past the float range
                us = math.inf
            if not math.isfinite(us):
                raise ParameterError(f"the airtime of a frame at {rate!r} Mbps is not finite",
                                     field)
            return us

        airtime(max(space.rates_mbps), "payload_bytes")  # too long at every rate
        ack = ack_airtime_us()
        difs = SIFS_US + 2 * slot_us
        tx = tuple(airtime(r, "rates_mbps") + SIFS_US + ack + difs for r in space.rates_mbps)
        col = airtime(col_rate, "collision_rate_mbps") + difs
        return cls(
            slot_us=slot_us,
            difs_us=difs,
            sifs_us=SIFS_US,
            ack_us=ack,
            per_state_tx_us=tx,
            collision_us=col,
        )

    def data_airtime(self, state: int) -> float:
        """Airtime of the data frame alone in the given state (no gaps)."""
        return self.per_state_tx_us[state] - self.sifs_us - self.ack_us - self.difs_us


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters: population, error model, channel mode.  The
    arrival rate is an argument of the model and of the simulators."""

    n_stations: int
    per_state_per: tuple[float, ...] = (0.1, 0.1, 0.1, 0.1)
    pi: tuple[float, ...] | None = None
    mean_ebn0_db: float | None = None
    retry_limit: int | None = 7  # None = unlimited (matches the drop-free analysis)
    seed: int = 0

    def __post_init__(self):
        if self.n_stations < 1:
            raise ParameterError("need at least one station", "n_stations")
        if any(not 0.0 <= e <= 1.0 for e in self.per_state_per):
            raise ParameterError("per-state PER values must lie in [0, 1]",
                                 "per_state_per")
        if (self.pi is None) == (self.mean_ebn0_db is None):
            raise ParameterError("specify exactly one of pi / mean_ebn0_db", "pi")
        if self.pi is not None:
            if not all(w >= 0 for w in self.pi):  # NaN fails it too
                raise ParameterError("state probabilities must be nonnegative", "pi")
            if not abs(sum(self.pi) - 1.0) <= 1e-12:
                raise ParameterError("explicit state probabilities must sum to 1", "pi")
        if self.retry_limit is not None and self.retry_limit < 0:
            raise ParameterError("retry limit must be nonnegative or None",
                                 "retry_limit")

    def resolve_pi(self, space: ChannelSpace) -> np.ndarray:
        """State distribution implied by the configured channel mode.  Raises
        ``ParameterError`` unless pi (when explicit) and the PER vector have
        one entry per channel state of ``space``."""
        if self.pi is not None and len(self.pi) != space.num_states:
            raise ParameterError("pi length does not match channel space", "pi")
        if len(self.per_state_per) != space.num_states:
            raise ParameterError("PER vector length does not match channel space",
                                 "per_state_per")
        if self.pi is not None:
            return np.asarray(self.pi, dtype=float)
        return state_probabilities(space, self.mean_ebn0_db)
