"""Experiment configuration files.

Flat, human-readable ``section.key = value`` lines; ``#`` starts a comment.
Keys map one-to-one onto the domain types:

    system.n_stations      = 7
    system.per_state_per   = 0.1, 0.1, 0.1, 0.1
    system.retry_limit     = 7          # or "unlimited"; simulators only
    system.seed            = 1
    channel.mode           = explicit   # or "rayleigh"
    channel.pi             = 0.25, 0.25, 0.25, 0.25   # explicit mode only
    channel.mean_ebn0_db   = 28.0       # rayleigh mode only
    channel.thresholds_db  = 0, 19.11, 26.90, 31.88   # values: rayleigh mode only
    channel.rates_mbps     = 12, 24, 48, 54
    timer.p                = 0.5
    timer.delta_us         = 9.0        # backoff slot of both MACs and the analysis
    timing.payload_bytes   = 1500
    timing.collision_rate_mbps = 12     # analysis collision-cost rate

Unknown keys, and the channel key of the mode not chosen, are rejected by
name.  Command-line flags override file keys.  The arrival rate is not a
key: each verb takes its rates from ``--lambda``.

Three keys act on part of the program only.  The values of
``channel.thresholds_db`` are read in rayleigh mode only; explicit mode
checks only that there is one per ``channel.rates_mbps`` entry, ascending
from 0 dB.  The analysis does not model ``system.retry_limit`` (it drops no
packet; a finite limit is named in ``analyze``'s row lines), and
``validate`` simulates with unlimited retries to match it.
``timing.collision_rate_mbps`` sets the cost of a collision in the analysis
only; the simulator blocks the channel for the longest colliding frame.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .core import ChannelSpace, MacTiming, ParameterError, SystemConfig, TimerPolicy


@dataclass(frozen=True)
class WlanSetup:
    """One fully resolved scenario: population, channel, timer, timing."""

    config: SystemConfig
    policy: TimerPolicy
    timing: MacTiming
    space: ChannelSpace

    def resolve_pi(self):
        """Channel-state law for the analysis.  Rejects a PER vector under
        which no transmission can succeed, since no renewal cycle would end."""
        pi = self.config.resolve_pi(self.space)
        if not any(w > 0.0 and e < 1.0 for w, e in zip(pi, self.config.per_state_per)):
            raise ConfigError("system.per_state_per",
                              "PER is 1 in every channel state that occurs")
        return pi


_DEFAULTS = {
    "system.n_stations": "7",
    "system.per_state_per": "0.1, 0.1, 0.1, 0.1",
    "system.retry_limit": "7",
    "system.seed": "1",
    "channel.mode": "explicit",
    "channel.pi": "0.25, 0.25, 0.25, 0.25",
    "channel.mean_ebn0_db": "28.0",
    "channel.thresholds_db": "0, 19.11, 26.90, 31.88",
    "channel.rates_mbps": "12, 24, 48, 54",
    "timer.p": "0.5",
    "timer.delta_us": "9.0",
    "timing.payload_bytes": "1500",
    "timing.collision_rate_mbps": "12",
}


# config key of each domain-type field that one key sets
_FIELD_KEYS = {
    "thresholds_db": "channel.thresholds_db",
    "rates_mbps": "channel.rates_mbps",
    "num_states": "channel.rates_mbps",
    "pi": "channel.pi",
    "mean_ebn0_db": "channel.mean_ebn0_db",
    "n_stations": "system.n_stations",
    "per_state_per": "system.per_state_per",
    "retry_limit": "system.retry_limit",
    "p": "timer.p",
    "delta_us": "timer.delta_us",
    "payload_bytes": "timing.payload_bytes",
    "collision_rate_mbps": "timing.collision_rate_mbps",
    "collision_us": "timing.collision_rate_mbps",
}


# the channel key that each mode does not read; setting it is refused
_INACTIVE_KEY = {"explicit": "channel.mean_ebn0_db", "rayleigh": "channel.pi"}


class ConfigError(ParameterError):
    """Malformed configuration file or overrides; carries the offending key."""

    def __init__(self, key: str, message: str):
        self.key, self.message = key, message
        super().__init__(f"config key {key!r}: {message}")

    def __reduce__(self):  # so that one raised in a worker process reaches the parent
        return type(self), (self.key, self.message)


def parse_config_text(text: str, overrides: dict | None = None) -> WlanSetup:
    values, given = dict(_DEFAULTS), set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line, f"line {lineno} is not 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in values:
            raise ConfigError(key, "unknown key")
        values[key] = val
        given.add(key)
    for key, val in (overrides or {}).items():
        if key not in values:
            raise ConfigError(key, "unknown override")
        values[key] = str(val)
        given.add(key)
    mode = values["channel.mode"]
    if _INACTIVE_KEY.get(mode) in given:
        raise ConfigError(_INACTIVE_KEY[mode], f"not read when channel.mode is {mode}")
    return _build_setup(values)


def load_config(path, overrides: dict | None = None) -> WlanSetup:
    with open(path) as fh:
        return parse_config_text(fh.read(), overrides)


def default_setup(overrides: dict | None = None) -> WlanSetup:
    return parse_config_text("", overrides)


def _floats(key: str, val: str) -> tuple[float, ...]:
    try:
        xs = tuple(float(x) for x in val.split(","))
    except ValueError as exc:
        raise ConfigError(key, f"expected comma-separated numbers, got {val!r}") from exc
    if not all(map(math.isfinite, xs)):
        raise ConfigError(key, f"values must be finite, got {val!r}")
    return xs


def _one(key: str, val: str, cast):
    try:
        x = cast(val)
    except ValueError as exc:
        raise ConfigError(key, f"bad value {val!r}") from exc
    if cast is float and not math.isfinite(x):
        raise ConfigError(key, f"value must be finite, got {val!r}")
    return x


def _build_setup(v: dict) -> WlanSetup:
    try:
        space = ChannelSpace(
            thresholds_db=_floats("channel.thresholds_db", v["channel.thresholds_db"]),
            rates_mbps=_floats("channel.rates_mbps", v["channel.rates_mbps"]),
        )
        mode = v["channel.mode"]
        if mode == "explicit":
            pi, mean = _floats("channel.pi", v["channel.pi"]), None
        elif mode == "rayleigh":
            pi, mean = None, _one("channel.mean_ebn0_db", v["channel.mean_ebn0_db"], float)
        else:
            raise ConfigError("channel.mode", f"must be explicit|rayleigh, got {mode!r}")
        retry = v["system.retry_limit"]
        retry_limit = None if retry in ("unlimited", "none") else _one(
            "system.retry_limit", retry, int)
        config = SystemConfig(
            n_stations=_one("system.n_stations", v["system.n_stations"], int),
            per_state_per=_floats("system.per_state_per", v["system.per_state_per"]),
            pi=pi,
            mean_ebn0_db=mean,
            retry_limit=retry_limit,
            seed=_one("system.seed", v["system.seed"], int),
        )
        policy = TimerPolicy(
            p=_one("timer.p", v["timer.p"], float),
            delta_us=_one("timer.delta_us", v["timer.delta_us"], float),
            num_states=space.num_states,
        )
        timing = MacTiming.dot11a(
            space,
            payload_bytes=_one("timing.payload_bytes", v["timing.payload_bytes"], int),
            collision_rate_mbps=_one("timing.collision_rate_mbps",
                                     v["timing.collision_rate_mbps"], float),
            slot_us=policy.delta_us,
        )
        config.resolve_pi(space)  # checks the pi and PER lengths
    except ConfigError:
        raise
    except ParameterError as exc:
        raise ConfigError(_FIELD_KEYS.get(exc.field, "<setup>"), str(exc)) from exc
    return WlanSetup(config=config, policy=policy, timing=timing, space=space)


def setup_hash(setup: WlanSetup) -> str:
    """Short stable digest of everything that determines the outputs."""
    payload = {
        "config": {k: (list(x) if isinstance(x, tuple) else x)
                   for k, x in setup.config.__dict__.items()},
        "policy": dict(setup.policy.__dict__),
        "timing": {k: (list(x) if isinstance(x, tuple) else x)
                   for k, x in setup.timing.__dict__.items()},
        "space": {k: list(x) for k, x in setup.space.__dict__.items()},
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]
