import argparse
import hashlib
import json
import os
import pickle
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oppmac import analysis, cli
from oppmac.cli import VERB_SCHEMES, ExperimentSpec, main, validation_rows
from oppmac.config import (
    _DEFAULTS,
    ConfigError,
    default_setup,
    load_config,
    parse_config_text,
    setup_hash,
)
from oppmac.core import ParameterError

CONFIG_TEXT = """\
# two stations, uniform channel, drop-free
system.n_stations    = 2
system.retry_limit   = unlimited
system.seed          = 42
channel.mode         = explicit
channel.pi           = 0.25, 0.25, 0.25, 0.25
"""


def write_config(tmp_path):
    path = tmp_path / "n2.conf"
    path.write_text(CONFIG_TEXT)
    return path


def exit_code(argv) -> int:
    """``main``'s exit code, also where argparse exits on a flag it refuses."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def forbid_model_and_simulator(monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("a model or simulator started")
    for name in ("fixed_points", "run_opportunistic", "run_dcf"):
        monkeypatch.setattr(cli, name, started)


COMMON_FLAGS = {"--config", "--lambda", "--out", "--set"}
# the flags each verb takes beyond COMMON_FLAGS
VERB_FLAGS = {
    "analyze": set(),
    "simulate": {"--scheme", "--reps", "--seed", "--duration-s"},
    "validate": {"--reps", "--seed", "--tolerance", "--duration-s"},
    "compare": {"--scheme", "--reps", "--seed", "--duration-s"},
}
FLAG_VALUES = {"--scheme": "opportunistic", "--reps": "2", "--seed": "7",
               "--tolerance": "0.1", "--duration-s": "2"}


# ---------------------------------------------------------------- config

def test_config_round_trip(tmp_path):
    setup = load_config(write_config(tmp_path))
    assert setup.config.n_stations == 2
    assert setup.config.retry_limit is None
    assert setup.config.seed == 42
    assert setup.policy.p == 0.5
    assert setup.timing.per_state_tx_us[0] == 1122.0


def test_config_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("system.n_station = 3\n")
    assert "system.n_station" in str(err.value)


def test_config_bad_value():
    with pytest.raises(ConfigError) as err:
        parse_config_text("system.n_stations = seven\n")
    assert "system.n_stations" in str(err.value)


def test_config_overrides_win():
    setup = parse_config_text(CONFIG_TEXT, {"system.n_stations": "5"})
    assert setup.config.n_stations == 5


def test_config_rayleigh_mode():
    setup = parse_config_text("channel.mode = rayleigh\n"
                              "channel.mean_ebn0_db = 25.0\n")
    assert setup.config.pi is None
    pi = setup.resolve_pi()
    assert abs(pi.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("mode, key, value", [
    ("rayleigh", "channel.pi", "0.7,0.1"),  # wrong length, sums to 0.8
    ("explicit", "channel.mean_ebn0_db", "20.0"),
])
def test_config_refuses_key_of_other_mode(tmp_path, capsys, monkeypatch, mode, key, value):
    """A channel key that the chosen mode does not read is refused by name,
    from a file and from --set alike, before any model starts."""
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"channel.mode = {mode}\n{key} = {value}\n")
    assert err.value.key == key
    forbid_model_and_simulator(monkeypatch)
    assert main(["analyze", "--lambda", "20", "--set", "system.n_stations=2",
                 "--set", f"channel.mode={mode}", "--set", f"{key}={value}",
                 "--out", str(tmp_path)]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key", ["timer.delta_us"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_config_nonfinite_names_key(key, value):
    with pytest.raises(ConfigError) as err:
        default_setup({key: value})
    assert err.value.key == key
    assert key in str(err.value)


# values whose frame airtime lies past the float range
NONFINITE_AIRTIME = {"channel.rates_mbps": "1e-310,24,48,54",
                     "timing.collision_rate_mbps": "1e-310",
                     "timing.payload_bytes": "9" * 400}


@pytest.mark.parametrize("key", sorted(NONFINITE_AIRTIME))
def test_nonfinite_airtime_exit_code(tmp_path, capsys, monkeypatch, key):
    """A rate or payload whose frame airtime is not finite exits 2 from every
    verb, naming its key, before anything runs or is written."""
    forbid_model_and_simulator(monkeypatch)
    for verb in VERB_FLAGS:
        out = tmp_path / verb
        assert main([verb, "--lambda", "20", "--set", f"{key}={NONFINITE_AIRTIME[key]}",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and "not finite" in err
        assert "Traceback" not in err and not out.exists()


# rayleigh-mode dB values whose linear form overflows or underflows to 0
OUT_OF_RANGE_DB = [("channel.mean_ebn0_db", "4000"), ("channel.mean_ebn0_db", "-4000"),
                   ("channel.thresholds_db", "0,19,26,4000")]


@pytest.mark.parametrize("key,value", OUT_OF_RANGE_DB)
def test_out_of_range_db_exit_code(tmp_path, capsys, monkeypatch, key, value):
    """A rayleigh-mode dB value without a finite positive linear form exits 2
    from every verb, naming its key, before anything runs or is written."""
    forbid_model_and_simulator(monkeypatch)
    for verb in VERB_FLAGS:
        out = tmp_path / verb
        assert main([verb, "--lambda", "20", "--set", "channel.mode=rayleigh",
                     "--set", f"{key}={value}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err
        assert "Traceback" not in err and not out.exists()


def test_explicit_mode_ignores_threshold_values():
    """Explicit mode reads no threshold value, so one past the float range
    builds the same setup as the default thresholds."""
    pi = default_setup({"channel.thresholds_db": "0,19,26,4000"}).resolve_pi()
    assert pi.tolist() == default_setup().resolve_pi().tolist()


def test_short_payload_is_analyzed(tmp_path):
    """A 64-byte frame takes as many OFDM symbols at 48 as at 54 Mbps; its
    equal airtimes are a valid scenario with a finite row."""
    assert main(["analyze", "--lambda", "20", "--set", "timing.payload_bytes=64",
                 "--out", str(tmp_path)]) == 0
    lines = [ln for ln in (tmp_path / "analysis.csv").read_text().splitlines()
             if not ln.startswith("#")]
    assert len(lines) == 2
    assert np.isfinite([float(x) for x in lines[1].split(",")]).all()


@pytest.mark.parametrize("source", ["file", "--set"])
def test_arrival_rate_is_not_a_config_key(tmp_path, capsys, monkeypatch, source):
    """The rates come from --lambda alone: system.lambda_pps, in a file or
    by --set, exits 2 naming the key before anything runs or is written."""
    forbid_model_and_simulator(monkeypatch)
    out = tmp_path / "out"
    args = ["analyze", "--lambda", "20", "--out", str(out)]
    if source == "file":
        path = tmp_path / "rate.conf"
        path.write_text(CONFIG_TEXT + "system.lambda_pps = 5\n")
        args += ["--config", str(path)]
    else:
        args += ["--set", "system.lambda_pps=5"]
    assert main(args) == 2
    assert "config key 'system.lambda_pps'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("timer.p", "2"),
    ("system.n_stations", "0"),
    ("channel.rates_mbps", "54,48,24,12"),
    ("channel.rates_mbps", "0,24,48,54"),          # a zero PHY rate
    ("timing.collision_rate_mbps", "0"),
    ("timing.payload_bytes", "0"),                 # no frame to send
    ("channel.pi", "0.5,0.5"),                     # one entry per channel state
    ("system.per_state_per", "0.1,0.1,0.1,0.1,0.1"),
])
def test_config_range_error_names_key(tmp_path, capsys, key, value):
    """An out-of-range value exits 2 naming its own key."""
    with pytest.raises(ConfigError) as err:
        default_setup({key: value})
    assert err.value.key == key
    assert main(["analyze", "--lambda", "10", "--set", f"{key}={value}",
                 "--out", str(tmp_path)]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err


def test_slot_length_has_one_source():
    """timer.delta_us sets the backoff slot of the timer policy and of the
    MAC timing alike, so the kernels, the model windows and both simulators
    count the same slot, and DIFS follows it."""
    setup = default_setup({"timer.delta_us": "20"})
    assert setup.policy.delta_us == setup.timing.slot_us == 20.0
    assert setup.timing.difs_us == 56.0  # SIFS + 2 slots
    default = default_setup()
    assert default.timing.slot_us == 9.0 and default.timing.difs_us == 34.0
    assert setup_hash(default) == "dae5312cd0da"
    # the per-success cost and the collision cost carry the same DIFS
    assert setup.timing.collision_us - default.timing.collision_us == 22.0
    assert [a - b for a, b in zip(setup.timing.per_state_tx_us,
                                  default.timing.per_state_tx_us)] == [22.0] * 4


def test_config_error_pickles():
    """A ConfigError raised in a worker process reaches the parent whole."""
    err = pickle.loads(pickle.dumps(ConfigError("channel.pi", "bad")))
    assert type(err) is ConfigError
    assert err.key == "channel.pi"
    assert str(err) == "config key 'channel.pi': bad"


def test_setup_hash_tracks_content():
    a = default_setup()
    b = default_setup({"timer.p": "0.4"})
    assert setup_hash(a) != setup_hash(b)
    assert setup_hash(a) == setup_hash(default_setup())


# one perturbed value per config key; channel.mode=rayleigh reads the
# default mean Eb/N0 and thresholds
PERTURBED = {
    "system.n_stations": "3",
    "system.per_state_per": "0.2, 0.2, 0.2, 0.2",
    "system.retry_limit": "0",  # unlimited drops nothing at this size
    "system.seed": "2",
    "channel.mode": "rayleigh",
    "channel.pi": "0.1, 0.2, 0.3, 0.4",
    "channel.mean_ebn0_db": "20.0",
    "channel.thresholds_db": "0, 15, 25, 30",
    "channel.rates_mbps": "6, 24, 48, 54",
    "timer.p": "0.3",
    "timer.delta_us": "10.0",
    "timing.payload_bytes": "1000",
    "timing.collision_rate_mbps": "24",
}
# the keys checked once more on a rayleigh-mode base
RAYLEIGH_KEYS = ("channel.mean_ebn0_db", "channel.thresholds_db")
# each verb at N = 2, lambda = 20; compare runs the analysis too
KEY_RUNS = {
    "analyze": [],
    "simulate": ["--duration-s", "0.3"],
    "validate": ["--duration-s", "0.3"],
    "compare": ["--scheme", "opportunistic,analysis", "--duration-s", "0.3"],
}
# (mode, verb, key) whose perturbation moves only the config hash, and why
HASH_ONLY = {
    ("explicit", "analyze", "system.seed"): "the analysis draws no random number",
    ("explicit", "validate", "system.retry_limit"):
        "validate simulates with unlimited retries, as the analysis assumes",
    ("explicit", "simulate", "timing.collision_rate_mbps"):
        "the simulator blocks the channel for the longest colliding frame instead",
    **{("explicit", verb, "channel.thresholds_db"):
       "explicit mode draws states from channel.pi; it checks only the thresholds' shape"
       for verb in KEY_RUNS},
}


def key_outcome(tmp_path, capsys, verb, sets) -> tuple:
    """(exit code, stderr, header lines, everything else) of one in-process
    run of ``verb`` with the --set items ``sets``; a CSV's header is its
    comment line, a JSON report's its ``_meta`` block."""
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    args = [verb, "--lambda", "20", *KEY_RUNS[verb], "--out", str(out)]
    for item in ("system.n_stations=2", *sets):
        args += ["--set", item]
    code = main(args)
    std = capsys.readouterr()
    headers, body = {}, {"stdout": std.out}
    for path in sorted(out.iterdir()) if out.exists() else []:
        text = path.read_text()
        if path.suffix == ".json":
            data = json.loads(text)
            headers[path.name] = data.pop("_meta")
            body[path.name] = data
        else:
            headers[path.name], _, body[path.name] = text.partition("\n")
    return code, std.err, headers, body


@pytest.mark.parametrize("verb", sorted(KEY_RUNS))
def test_every_config_key_acts_or_is_listed(tmp_path, capsys, monkeypatch, verb):
    """Each config key, perturbed, changes an output of the verb beyond the
    headers, or exits 2 naming itself, or is listed in HASH_ONLY with the
    reason it moves only the config hash.  A listed pair must still be
    hash-only, so the list cannot go stale."""
    assert set(PERTURBED) == set(_DEFAULTS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # in-process
    found = {}
    for mode in ("explicit", "rayleigh"):
        base_sets = [] if mode == "explicit" else ["channel.mode=rayleigh"]
        base = key_outcome(tmp_path, capsys, verb, base_sets)
        assert base[0] in (0, 1), base[1]
        keys = PERTURBED if mode == "explicit" else RAYLEIGH_KEYS
        for key in keys:
            code, err, headers, body = key_outcome(
                tmp_path, capsys, verb, base_sets + [f"{key}={PERTURBED[key]}"])
            if code == 2:
                found[mode, verb, key] = "exit 2" if f"config key {key!r}" in err else err
            elif (code, body) != (base[0], base[3]):
                found[mode, verb, key] = "acts"
            else:
                found[mode, verb, key] = "hash only" if headers != base[2] else "no change"
    listed = {k for k in HASH_ONLY if k[1] == verb}
    assert {k for k, v in found.items() if v == "hash only"} == listed
    assert all(v in ("acts", "exit 2") for k, v in found.items() if k not in listed), found


def test_spec_validates_schemes(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentSpec(setup=default_setup(), schemes=("dcf-beb",),
                       out_dir=tmp_path)


# ------------------------------------------------------------------- CLI

def test_analyze_deterministic_and_empty_grid(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["analyze", "--lambda", "15,30", "--set", "system.n_stations=2",
            "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert (out1 / "analysis.csv").read_bytes() == (out2 / "analysis.csv").read_bytes()
    out3 = tmp_path / "c"
    assert main(["analyze", "--lambda", "", "--out", str(out3)]) == 0
    lines = (out3 / "analysis.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("#")


def test_simulate_outputs(tmp_path):
    out = tmp_path / "sim"
    args = ["simulate", "--lambda", "25", "--scheme", "opportunistic",
            "--reps", "2", "--duration-s", "2",
            "--set", "system.n_stations=2", "--out", str(out)]
    assert main(args) == 0
    files = sorted(p.name for p in out.iterdir())
    assert "sim_opportunistic_lam25_rep0.json" in files
    assert "sim_opportunistic_lam25_rep1.json" in files
    data = json.loads((out / "sim_opportunistic_lam25_rep0.json").read_text())
    assert data["_meta"]["config_hash"]
    rows = (out / "simulate.csv").read_text().splitlines()
    header = rows[1].split(",")
    body = rows[2].split(",")
    i_mean = header.index("system_pps_mean")
    i_err = header.index("system_pps_stderr")
    assert float(body[i_mean]) > 0
    assert body[i_err] != ""  # two replications populate the stderr
    # byte-identical rerun
    out2 = tmp_path / "sim2"
    assert main(args[:-1] + [str(out2)]) == 0
    assert (out / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()


def test_simulate_csv_pinned_digest(tmp_path):
    """simulate.csv of a small two-scheme run is pinned byte for byte; its
    lambda = 0 rows measure no renewal, so that mean reads nan and its
    standard error is blank."""
    assert main(["simulate", "--scheme", "opportunistic,dcf-arf", "--lambda", "0,25",
                 "--reps", "2", "--duration-s", "1", "--set", "system.n_stations=2",
                 "--out", str(tmp_path)]) == 0
    data = (tmp_path / "simulate.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == \
        "592f6a2301d5043c0fab9e009acdc0f298382fd98324902bf6b455af415b2cdc"
    zero_rows = [r for r in data.decode().splitlines()[2:] if r.split(",")[1] == "0.0"]
    assert len(zero_rows) == 2 and all(r.endswith(",nan,") for r in zero_rows)


def test_simulate_refuses_rates_that_share_a_file_name(tmp_path, capsys, monkeypatch):
    """Two rates that print alike under {:g} would write one run file twice:
    simulate exits 2 naming --lambda before any run, and writes nothing."""
    forbid_model_and_simulator(monkeypatch)
    out = tmp_path / "sim"
    assert main(["simulate", "--lambda", "10.0000001,10.0000002", "--duration-s", "1",
                 "--set", "system.n_stations=2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config key '--lambda'" in err and "same run files" in err
    assert not out.exists()


def test_simulate_single_rep_blank_stderr(tmp_path):
    out = tmp_path / "one"
    assert main(["simulate", "--lambda", "25", "--reps", "1",
                 "--duration-s", "1", "--set", "system.n_stations=1",
                 "--out", str(out)]) == 0
    rows = (out / "simulate.csv").read_text().splitlines()
    header = rows[1].split(",")
    body = rows[2].split(",")
    assert body[header.index("system_pps_stderr")] == ""


def test_validate_small_system(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "val"
    code = main(["validate", "--config", str(config), "--lambda", "20",
                 "--duration-s", "25", "--tolerance", "0.05",
                 "--out", str(out)])
    assert code == 0
    rows = (out / "validate.csv").read_text().splitlines()
    assert rows[1] == "lambda_pps,metric,analysis,simulation,rel_err,within_tol"
    assert len(rows) == 5  # header comment + columns + 3 metrics
    assert all(r.endswith(",1") for r in rows[2:])


def test_validate_ignores_retry_limit(tmp_path):
    """The analysis has no retry limit, so validate simulates without one:
    a config retry limit of 0 gives the rows an unlimited one gives."""
    config = write_config(tmp_path)
    rows = []
    for retry in ("0", "unlimited"):
        out = tmp_path / f"retry-{retry}"
        main(["validate", "--config", str(config), "--lambda", "20,200",
              "--duration-s", "2", "--set", f"system.retry_limit={retry}",
              "--out", str(out)])
        rows.append((out / "validate.csv").read_text().splitlines())
    assert rows[0][0] != rows[1][0]  # the config hash differs
    assert rows[0][1:] == rows[1][1:] and len(rows[0]) == 8


def test_validate_breach_exit_code(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "breach"
    code = main(["validate", "--config", str(config), "--lambda", "20",
                 "--duration-s", "2", "--tolerance", "0.00001",
                 "--out", str(out)])
    assert code == 1


def test_validate_reports_unmeasured_metric(tmp_path, capsys):
    """A millisecond run ends no renewal: E[R] is unmeasured, so its cells
    are blank, its line reads n/a, and the row breaches."""
    out = tmp_path / "val"
    assert main(["validate", "--lambda", "1", "--duration-s", "0.001",
                 "--set", "system.n_stations=2", "--out", str(out)]) == 1
    row = (out / "validate.csv").read_text().splitlines()[4].split(",")
    assert row[:2] == ["1.0", "e_r_us"] and row[3:] == ["", "", "0"]
    line = capsys.readouterr().out.splitlines()[2]
    assert "e_r_us" in line and "sim=n/a err=n/a [BREACH]" in line


CSV_HEADERS = {  # verb: (file stem, units, columns, rows over two rates)
    "analyze": ("analysis", "lambda_pps=pkts/s e_r_us=us theta=pkts/s",
                "lambda_pps,p_a,p_s,e_r_us,pbar_a,pbar_s,theta_ap_pps,theta_sta_pps,"
                "converged,iterations", 2),
    "simulate": ("simulate", "pps=pkts/s *_us=us",
                 "scheme,lambda_pps,reps," + ",".join(
                     f"{m}_{stat}" for m in ("uplink_pps", "downlink_pps", "system_pps",
                                             "p_a_hat", "p_s_hat", "mean_renewal_us")
                     for stat in ("mean", "stderr")), 4),
    "validate": ("validate", "e_r_us=us tolerance=0.1",
                 "lambda_pps,metric,analysis,simulation,rel_err,within_tol", 6),
    "compare": ("compare", "pps=pkts/s",
                "scheme,lambda_pps,uplink_pps,downlink_pps,system_pps", 4),
}


@pytest.mark.parametrize("verb", sorted(CSV_HEADERS))
def test_csv_header_and_columns(tmp_path, verb):
    """Each verb's CSV opens with its schema, the configuration hash and its
    units, then its columns, and each row has one cell per column."""
    stem, units, columns, n_rows = CSV_HEADERS[verb]
    args = [verb, "--lambda", "10,20", "--set", "system.n_stations=2", "--out", str(tmp_path)]
    if verb != "analyze":
        args += ["--duration-s", "0.5"]
    if verb in VERB_SCHEMES:
        args += ["--scheme", "opportunistic,dcf-arf" if verb == "simulate"
                 else "opportunistic,analysis"]
    assert main(args) in (0, 1)  # half a second of validate may breach
    lines = (tmp_path / f"{stem}.csv").read_text().splitlines()
    chash = setup_hash(default_setup({"system.n_stations": "2"}))
    assert lines[0] == f"# schema={stem}-v1 config_hash={chash} units: {units}"
    assert lines[1] == columns and len(lines) == 2 + n_rows
    assert all(len(line.split(",")) == len(columns.split(",")) for line in lines[2:])


def test_validation_rows_negative_control():
    """Deliberately mismatched simulation results must be flagged."""
    from oppmac.analysis import AnalysisSolution
    sol = AnalysisSolution(lambda_pps=20.0, p_a=0.02, p_s=0.02,
                           expected_renewal_us=10000.0, pbar_a=0.25,
                           pbar_s=0.25, theta_ap_pps=20.0, theta_sta_pps=20.0,
                           converged=True, iterations=5)
    good = {20.0: {"p_a_hat": 0.0205, "p_s_hat": 0.0199,
                   "mean_renewal_us": 10050.0}}
    rows, breached = validation_rows([sol], good, 0.10)
    assert not breached and all(ok for *_, ok in rows)
    # timing constants mismatched between the two sides: E[R] off by 2x
    bad = {20.0: {"p_a_hat": 0.0205, "p_s_hat": 0.0199,
                  "mean_renewal_us": 20000.0}}
    rows, breached = validation_rows([sol], bad, 0.10)
    assert breached
    assert [ok for *_ , ok in rows] == [True, True, False]


def test_compare_keeps_zero_rate_rows(tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--lambda", "0,30", "--scheme",
                 "opportunistic,dcf-arf", "--duration-s", "2",
                 "--set", "system.n_stations=2", "--out", str(out)]) == 0
    rows = (out / "compare.csv").read_text().splitlines()
    assert rows[1] == "scheme,lambda_pps,uplink_pps,downlink_pps,system_pps"
    zero_rows = [r for r in rows[2:] if r.split(",")[1] == "0.0"]
    assert len(zero_rows) == 2
    assert all(float(r.split(",")[4]) == 0.0 for r in zero_rows)


def test_compare_flags_a_non_converged_analysis_row(tmp_path, capsys):
    """At N = 7, lambda = 120 the fixed point does not converge: the analysis
    row of compare.csv is nan, as before, and its stdout line says NOT
    CONVERGED and why."""
    assert main(["compare", "--scheme", "analysis", "--lambda", "20,120",
                 "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "NOT CONVERGED" not in lines[0]
    assert lines[1] == "compare analysis lambda=120: system=nan pps NOT CONVERGED (pinned)"
    assert (tmp_path / "compare.csv").read_text().splitlines()[-1] \
        == "analysis,120.0,nan,nan,nan"


def test_cli_config_error_exit_code(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.conf"
    bad.write_text("system.n_stations = 2\nsystem.bogus_key = 1\n")
    assert main(["analyze", "--config", str(bad), "--lambda", "10",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["analyze", "--lambda", "10", "--set", "nope=1",
                 "--out", str(tmp_path / "y")]) == 2
    # an --out that is, or lies beneath, an existing file or a dangling link
    # is refused before any model or simulator starts; nothing is created
    # or changed
    forbid_model_and_simulator(monkeypatch)
    capsys.readouterr()
    gone = tmp_path / "gone"
    gone.symlink_to(tmp_path / "nowhere")
    for verb in ("analyze", "simulate"):
        for out in (bad, bad / "below", gone):
            assert main([verb, "--lambda", "10", "--set", "system.n_stations=2",
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"config key '--out': {str(out)!r} is, or lies beneath, a file" in err
    assert bad.read_text() == "system.n_stations = 2\nsystem.bogus_key = 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.conf", "gone"]


@pytest.mark.parametrize("verb", ["analyze", "simulate"])
@pytest.mark.parametrize("rates", ["fast", "nan", "inf", "-inf", "-5", "10,nan"])
def test_bad_lambda_exit_code(tmp_path, capsys, verb, rates):
    """Rejected while parsing, before any model or simulator starts."""
    assert main([verb, f"--lambda={rates}", "--out", str(tmp_path)]) == 2
    assert "--lambda" in capsys.readouterr().err
    assert not tmp_path.joinpath("analysis.csv").exists()


@pytest.mark.parametrize("verb", ["simulate", "validate"])
@pytest.mark.parametrize("flag,value", [
    ("--duration-s", "nan"), ("--duration-s", "inf"),  # would never reach the end time
    ("--duration-s", "0"), ("--duration-s", "-1"),     # would report a silent zero
    ("--duration-s", "1e+303"),                        # inf in microseconds
    ("--tolerance", "nan"), ("--tolerance", "-1"),     # would breach every row
])
def test_bad_duration_or_tolerance_exit_code(tmp_path, capsys, monkeypatch,
                                             verb, flag, value):
    """Rejected while building the spec, naming the flag and the value given,
    before any model or simulator starts; simulate takes no --tolerance, so
    there the flag itself is refused."""
    forbid_model_and_simulator(monkeypatch)
    assert exit_code([verb, "--lambda", "20", f"{flag}={value}", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    if flag in VERB_FLAGS[verb]:
        assert f"config key {flag!r}" in err and value in err
    else:
        assert f"unrecognized arguments: {flag}={value}" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("verb", ["analyze", "simulate"])
@pytest.mark.parametrize("delta_us", ["nan", "inf"])
def test_nonfinite_slot_length_exit_code(tmp_path, capsys, monkeypatch, verb, delta_us):
    """Rejected while building the setup, before any model or simulator starts."""
    forbid_model_and_simulator(monkeypatch)
    assert main([verb, "--lambda", "10", "--set", f"timer.delta_us={delta_us}",
                 "--out", str(tmp_path)]) == 2
    assert "timer.delta_us" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("verb, scheme", [("simulate", "analysis"),
                                           ("validate", "dcf-arf"),
                                           ("analyze", "opportunistic")])
def test_verb_rejects_scheme_it_cannot_run(tmp_path, capsys, monkeypatch, verb, scheme):
    """simulate cannot run the analysis, so it refuses that scheme; validate
    checks only the opportunistic MAC and analyze runs only the analysis, so
    both refuse the --scheme flag itself.  Either way before any model or
    simulator starts or any file is written."""
    forbid_model_and_simulator(monkeypatch)
    assert exit_code([verb, "--lambda", "10", "--scheme", scheme, "--set",
                      "system.n_stations=2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--scheme" in err and scheme in err
    if verb != "simulate":
        assert f"unrecognized arguments: --scheme {scheme}" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("verb, flag", sorted(
    (verb, flag) for verb, flags in VERB_FLAGS.items()
    for flag in set(FLAG_VALUES) - flags))
def test_verb_refuses_flag_it_does_not_take(tmp_path, capsys, monkeypatch, verb, flag):
    """A flag a verb would not read exits 2 naming it, before any model or
    simulator starts or any file is written."""
    forbid_model_and_simulator(monkeypatch)
    assert exit_code([verb, "--lambda", "20", flag, FLAG_VALUES[flag],
                      "--set", "system.n_stations=2", "--out", str(tmp_path)]) == 2
    assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
def test_verb_help_lists_its_flags(capsys, verb):
    assert exit_code([verb, "--help"]) == 0
    shown = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert shown == COMMON_FLAGS | VERB_FLAGS[verb] | {"--help"}


@pytest.mark.parametrize("verb, rates", [("validate", ""), ("analyze", "0"),
                                          ("validate", "0"), ("validate", "20,0")])
def test_analysis_verbs_refuse_empty_or_zero_grid(tmp_path, capsys, monkeypatch,
                                                  verb, rates):
    """A validation over no rate would compare nothing and pass, and the
    analysis has no fixed point at zero load: both are refused while parsing,
    naming --lambda, before any model or simulator starts."""
    forbid_model_and_simulator(monkeypatch)
    assert main([verb, f"--lambda={rates}", "--set", "system.n_stations=2",
                 "--out", str(tmp_path)]) == 2
    assert "config key '--lambda'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("verb, flag, value", [
    ("simulate", "--lambda", "20,20"), ("compare", "--lambda", "20,20.0"),
    ("simulate", "--scheme", "opportunistic,opportunistic"),
    ("compare", "--scheme", "analysis,dcf-arf,analysis"),
])
def test_repeated_rate_or_scheme_exit_code(tmp_path, capsys, monkeypatch, verb, flag, value):
    """A repeated rate or scheme would rerun the same seeded runs and write
    the same files again; it is refused naming its flag, before any model or
    simulator starts or any file is written."""
    forbid_model_and_simulator(monkeypatch)
    assert main([verb, flag, value, "--set", "system.n_stations=2",
                 "--out", str(tmp_path)]) == 2
    assert f"config key {flag!r}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def readme_cli_section() -> str:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_examples_parse(monkeypatch):
    """Every oppmac line of the README's CLI section gets through the parser
    and build_spec; no model or simulator starts and nothing is written."""
    forbid_model_and_simulator(monkeypatch)
    specs = []
    for verb in VERB_FLAGS:
        monkeypatch.setattr(cli, f"cmd_{verb}", lambda spec: specs.append(spec) or 0)
    text = readme_cli_section().replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines()
                if line.strip().startswith("oppmac ")]
    assert sorted(argv[0] for argv in commands) == sorted(VERB_FLAGS)
    for argv in commands:
        assert exit_code(argv) == 0, argv
    assert len(specs) == len(commands)


def test_readme_flag_table_matches_parser():
    """The README's per-verb flag table names the flags each verb takes."""
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme_cli_section(), re.M)
    assert {verb: set(re.findall(r"--[a-z][a-z-]*", flags)) for verb, flags in rows} \
        == VERB_FLAGS


@pytest.mark.parametrize("verb", ["analyze", "validate", "compare"])
def test_model_out_of_memory_exit_code(tmp_path, capsys, monkeypatch, verb):
    """A model too large for memory names the station count and exits 2."""
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 15.7 GiB")
    monkeypatch.setattr(analysis, "CycleModel", too_large)
    args = [verb, "--lambda", "10", "--set", "system.n_stations=40", "--out", str(tmp_path)]
    assert main(args + (["--scheme", "analysis"] if verb == "compare" else [])) == 2
    err = capsys.readouterr().err
    assert "system.n_stations" in err and "40 stations" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["analyze", "validate", "compare"])
def test_analysis_past_the_cell_budget_exit_code(tmp_path, capsys, monkeypatch, verb):
    """An analysis with more cells than at 60 stations is refused on the
    station count, before any census is enumerated or any simulator child
    forked, and leaves no --out; 60 stations pass the check."""
    def enumerated(n):
        raise AssertionError("a census was enumerated")

    monkeypatch.setattr(analysis, "enumerate_censuses", enumerated)
    forbid_model_and_simulator(monkeypatch)
    children = force_cpus(monkeypatch, {0, 1})
    extra = ["--scheme", "opportunistic,analysis"] if verb == "compare" else []
    out = tmp_path / "out"
    t0 = time.monotonic()
    assert main([verb, "--lambda", "10", "--set", "system.n_stations=61",
                 "--out", str(out), *extra]) == 2
    assert time.monotonic() - t0 < 5
    err = capsys.readouterr().err
    assert "system.n_stations" in err and "61 stations" in err and "Traceback" not in err
    assert not out.exists() and not children
    for n, command in ((60, verb), (61, "simulate")):  # simulate solves no analysis
        args = argparse.Namespace(command=command, config=None, lam="10",
                                  set=[f"system.n_stations={n}"], out=str(out),
                                  scheme="opportunistic,analysis" if command == "compare" else "")
        assert cli.build_spec(args).setup.config.n_stations == n


@pytest.mark.parametrize("verb", ["simulate", "validate", "compare"])
@pytest.mark.parametrize("flag, rate, duration_s", [
    ("--lambda", "1e300", "0.001"),  # the arrivals of a run that never ended
    ("--lambda", "1e7", "30"),       # 4.2e9 arrivals, about 17 minutes a run
    ("--duration-s", "20", "1e9"),   # 2.9e13 contentions of one DIFS
])
def test_simulation_past_the_work_budget_exit_code(tmp_path, capsys, monkeypatch, verb,
                                                   flag, rate, duration_s):
    """A run whose expected arrivals or whose duration in DIFS exceeds
    MAX_SIM_WORK is refused on the flag that sets it, before any simulator
    or child starts, and leaves no --out."""
    forbid_model_and_simulator(monkeypatch)
    children = force_cpus(monkeypatch, {0, 1})
    out = tmp_path / "out"
    t0 = time.monotonic()
    assert main([verb, "--lambda", rate, "--duration-s", duration_s, "--set",
                 "system.n_stations=2" if rate == "1e300" else "system.n_stations=7",
                 "--out", str(out)]) == 2
    assert time.monotonic() - t0 < 5
    err = capsys.readouterr().err
    assert f"config key '{flag}'" in err and "events one run may take" in err
    assert "Traceback" not in err and not out.exists() and not children


@pytest.mark.parametrize("argv", [
    # results/throughput and results/validation
    "compare --scheme opportunistic,dcf-arf,dcf-threshold --lambda 120 --duration-s 40",
    "validate --lambda 80 --duration-s 60",
    "validate --lambda 20 --set system.n_stations=2 --duration-s 120",
    # CI's costliest by arrivals and by contentions (a 16.002 us DIFS)
    "simulate --set system.n_stations=7 --lambda 5000 --duration-s 1",
    "simulate --set system.n_stations=2 --set timer.delta_us=0.001 --lambda 300 "
    "--duration-s 3",
    # the benchmark's simulator workloads
    "simulate --set system.n_stations=15 --lambda 300 --duration-s 4",
    "simulate --set system.n_stations=7 --lambda 40 --duration-s 30",
    # test_killed_verb_takes_its_children_along: 5.9e8 contentions
    "simulate --set system.n_stations=2 --lambda 20 --duration-s 20000",
    # the analysis alone is not bounded by the simulator's budget
    "compare --scheme analysis --lambda 1e300 --duration-s 1e9",
    "analyze --lambda 1e300",
])
def test_costliest_runs_fit_the_work_budget(tmp_path, argv):
    """Every simulator run that the committed results, CI, the benchmark and
    the tests make is inside MAX_SIM_WORK."""
    command, *rest = argv.split()
    flags = dict(zip(rest[::2], rest[1::2]))
    sets = [v for k, v in zip(rest[::2], rest[1::2]) if k == "--set"]
    parsed = argparse.Namespace(command=command, config=None, lam=flags["--lambda"],
                                set=sets, out=str(tmp_path / "out"),
                                scheme=flags.get("--scheme", ""))
    if "--duration-s" in flags:
        parsed.duration_s = float(flags["--duration-s"])
    assert cli.build_spec(parsed).lambdas


def test_analyze_zero_rate_exit_code(tmp_path, capsys):
    assert main(["analyze", "--lambda", "0", "--set", "system.n_stations=2",
                 "--out", str(tmp_path)]) == 2
    assert "positive arrival rate" in capsys.readouterr().err


@pytest.mark.parametrize("sets, rate", [
    (["timer.p=0"], "1e7"),
    (["timer.p=0", "system.n_stations=1"], "1e9"),
    (["timer.p=0", "system.n_stations=2"], "1e9"),
    (["timer.p=1", "system.n_stations=1"], "1e9"),
])
def test_side_that_never_wins_is_not_converged(tmp_path, capsys, sets, rate):
    """With p in {0, 1} and every queue refilled at once, one side of each
    pair always draws the later slot of its state and never wins a cycle, so
    its theta is exactly 0.  The iteration stops before taking its log: the
    row is NOT CONVERGED with that reason on stdout, and the verb exits 0
    without a traceback."""
    args = ["analyze", "--lambda", rate, "--out", str(tmp_path)]
    for item in sets:
        args += ["--set", item]
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert "NOT CONVERGED (one side never wins)" in out and not err
    row = (tmp_path / "analysis.csv").read_text().splitlines()[2].split(",")
    assert row[-2] == "0" and 0.0 in (float(row[6]), float(row[7]))  # a theta


@pytest.mark.parametrize("overrides", [
    ["system.per_state_per=1,1,1,1"],
    ["system.per_state_per=1,0.1,0.1,0.1", "channel.pi=1,0,0,0"],
])
def test_per_one_everywhere_exit_code(tmp_path, capsys, overrides):
    """No state that occurs can deliver a frame, so no cycle ends."""
    args = ["analyze", "--lambda", "20", "--set", "system.n_stations=2"]
    for item in overrides:
        args += ["--set", item]
    assert main(args + ["--out", str(tmp_path)]) == 2
    assert "system.per_state_per" in capsys.readouterr().err


def test_analyze_matches_committed_grid(tmp_path):
    """The README grid (N=7) reproduces results/validation/analysis.csv:
    numbers to 1e-12 relative, since float summation order may differ
    between numpy builds; flags and iteration counts exactly."""
    assert main(["analyze", "--lambda", "10,20,30,40,50,60,70,80,85,90,100",
                 "--set", "system.retry_limit=unlimited",
                 "--out", str(tmp_path)]) == 0
    got = (tmp_path / "analysis.csv").read_text().splitlines()
    pinned = Path(__file__).resolve().parents[1] / "results/validation/analysis.csv"
    want = pinned.read_text().splitlines()
    assert got[:2] == want[:2] and len(got) == len(want)
    for g, w in zip(got[2:], want[2:]):
        g, w = g.split(","), w.split(",")
        assert g[-2:] == w[-2:]  # converged, iterations
        np.testing.assert_allclose([float(x) for x in g[:-2]],
                                   [float(x) for x in w[:-2]], rtol=1e-12, atol=0)


def test_compare_matches_committed_row(tmp_path):
    """The lambda=10 row of results/throughput/compare.csv (three schemes, two
    40 s replications each) reproduces byte for byte."""
    assert main(["compare", "--scheme", "opportunistic,dcf-arf,dcf-threshold",
                 "--lambda", "10", "--reps", "2", "--duration-s", "40",
                 "--set", "channel.mode=rayleigh", "--set", "channel.mean_ebn0_db=28.0",
                 "--out", str(tmp_path)]) == 0
    got = (tmp_path / "compare.csv").read_text().splitlines()
    pinned = Path(__file__).resolve().parents[1] / "results/throughput/compare.csv"
    want = pinned.read_text().splitlines()
    assert got == want[:2] + [r for r in want[2:] if r.split(",")[1] == "10.0"]
    assert len(got) == 5


# ---------------------------------------------------------------- forked children

def force_cpus(monkeypatch, cpus) -> list:
    """Makes the affinity mask read ``cpus``; returns the list to which each
    child that the CLI forks from then on adds its pid."""
    children = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    monkeypatch.setattr(os, "fork", fork)
    return children


def assert_no_child_left():
    """Every child of this process has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


POOL_RUNS = {
    "simulate": ["--scheme", "opportunistic,dcf-arf,dcf-threshold", "--lambda", "20,40",
                 "--reps", "2"],
    "validate": ["--lambda", "20,40", "--reps", "2"],
    "compare": ["--scheme", "opportunistic,analysis,dcf-arf", "--lambda", "0,20",
                "--reps", "2"],
}


@pytest.mark.parametrize("verb", sorted(POOL_RUNS))
def test_pool_and_serial_paths_same_bytes(tmp_path, capsys, monkeypatch, verb):
    """One CPU runs the simulations in-process, two run them on two forked
    children, forked before the parent solves any fixed point; every file,
    the stdout and the exit code are the same, and no child is left."""
    solving_while_forked = []
    real_fixed_points = cli.fixed_points

    def fixed_points(lambdas, *args, **kwargs):
        solving_while_forked.append((len(children), tuple(lambdas)))
        return real_fixed_points(lambdas, *args, **kwargs)

    monkeypatch.setattr(cli, "fixed_points", fixed_points)
    runs = []
    for cpus in ({0}, {0, 1}):
        children = force_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{len(cpus)}"
        code = main([verb, *POOL_RUNS[verb], "--duration-s", "1",
                     "--set", "system.n_stations=2", "--out", str(out)])
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        runs.append((code, capsys.readouterr().out, files))
        assert len(children) == (0 if len(cpus) == 1 else 2)
        assert_no_child_left()
    assert runs[0] == runs[1]
    assert len(runs[0][2]) == {"simulate": 13, "validate": 1, "compare": 1}[verb]
    # one solve of all the positive rates per run
    rates = {"simulate": None, "validate": (20.0, 40.0), "compare": (20.0,)}[verb]
    assert solving_while_forked == ([] if rates is None else [(0, rates), (2, rates)])


@pytest.mark.parametrize("error", [ParameterError("no rate fits this channel"),
                                   ConfigError("channel.rates_mbps", "no rate fits this channel")])
def test_pooled_parameter_error_exit_code(tmp_path, capsys, monkeypatch, error):
    """An error raised in a child exits 2 with its message, as it would
    in-process, no run file is written and no child is left."""
    def bad_rate(*args, **kwargs):
        raise error

    children = force_cpus(monkeypatch, {0, 1})
    monkeypatch.setattr(cli, "run_dcf", bad_rate)
    out = tmp_path / "sim"
    assert main(["simulate", "--scheme", "opportunistic,dcf-arf", "--lambda", "20",
                 "--duration-s", "0.5", "--set", "system.n_stations=2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "no rate fits this channel" in err and "Traceback" not in err
    assert len(children) == 2
    assert not out.exists()
    assert_no_child_left()


def test_child_that_dies_without_a_report(tmp_path, monkeypatch):
    """A child killed before it reports fails the verb with its exit status,
    without a hang, and is reaped with its sibling."""
    def killed(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    children = force_cpus(monkeypatch, {0, 1})
    monkeypatch.setattr(cli, "run_dcf", killed)
    out = tmp_path / "sim"
    with pytest.raises(RuntimeError, match=f"exit status {-signal.SIGKILL}"):
        main(["simulate", "--scheme", "dcf-arf,opportunistic", "--lambda", "20",
              "--duration-s", "0.5", "--set", "system.n_stations=2", "--out", str(out)])
    assert len(children) == 2
    assert not out.exists()
    assert_no_child_left()


def test_interrupted_verb_kills_its_children(tmp_path, monkeypatch):
    """An interrupt in the parent while the children still run kills and
    reaps them at once."""
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    children = force_cpus(monkeypatch, {0, 1})
    monkeypatch.setattr(cli, "run_opportunistic", lambda *a, **k: time.sleep(60))
    monkeypatch.setattr(cli, "fixed_points", interrupted)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["validate", "--lambda", "20", "--reps", "2", "--duration-s", "0.5",
              "--set", "system.n_stations=2", "--out", str(tmp_path)])
    assert len(children) == 2 and time.monotonic() - t0 < 30
    assert_no_child_left()


def test_pooled_verb_imports_no_process_pool(tmp_path):
    """The forked path needs neither multiprocessing nor concurrent.futures:
    a pooled simulate in a fresh interpreter leaves both unimported."""
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "forks, real_fork = [], os.fork\n"
        "def fork():\n"
        "    forks.append(1)\n"
        "    return real_fork()\n"
        "os.fork = fork\n"
        "from oppmac.cli import main\n"
        f"code = main(['simulate', '--scheme', 'opportunistic,dcf-arf', '--lambda', '20',"
        f" '--duration-s', '0.2', '--set', 'system.n_stations=2', '--out', {str(tmp_path)!r}])\n"
        "print(code, len(forks), sorted({'multiprocessing', 'concurrent.futures'}"
        " & set(sys.modules)))\n")
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 2 []"


def running(pid: int) -> bool:
    """The process exists and has not ended; a zombie waiting for its
    reaper has ended."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the children ask Linux for a signal when their parent dies")
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=lambda s: s.name)
def test_killed_verb_takes_its_children_along(tmp_path, sig):
    """A pooled simulate killed from outside, which runs no cleanup, takes
    its two forked children along: within 10 s neither is still running,
    though each had hours of simulated time left."""
    code = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "real_fork = os.fork\n"
        "def fork():\n"
        "    pid = real_fork()\n"
        "    if pid:\n"
        "        print(pid, flush=True)\n"
        "    return pid\n"
        "os.fork = fork\n"
        "from oppmac.cli import main\n"
        f"main(['simulate', '--scheme', 'opportunistic,dcf-arf', '--lambda', '20',"
        f" '--duration-s', '20000', '--set', 'system.n_stations=2', '--out', {str(tmp_path)!r}])\n")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    pids = []
    try:
        pids = [int(proc.stdout.readline()) for _ in range(2)]
        time.sleep(0.5)  # the children are simulating
        assert all(running(pid) for pid in pids)
    finally:
        proc.send_signal(sig)
        proc.wait(timeout=30)
        proc.stdout.close()
    try:
        deadline = time.monotonic() + 10.0
        while any(running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if running(pid)]
    finally:
        for pid in pids:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
