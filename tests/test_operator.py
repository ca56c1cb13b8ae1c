"""The census transition operator and the tagged right-hand side of
``CycleModel`` against the exact scalar references in ``oracles``."""

import numpy as np
import pytest

from oppmac import AP, STA, CycleModel, TimerPolicy, build_kernels
from oppmac.kernels import PAIR_STATES, S0

from oracles import p_hat_minislot, pair_transition_probs, transition_deltas, transition_prob

PI = (0.1, 0.2, 0.3, 0.4)
PER = (0.1, 0.25, 0.0, 0.4)  # a zero-PER state has no errored-success windows


def make_model(n, lam, timing):
    kt = build_kernels(TimerPolicy(), np.asarray(PI), lam)
    return CycleModel(kt, timing, PER, lam, n), kt


def continuation_windows(model, census):
    """{window t_us: probability the period ends without a success after t}."""
    succ, col = model.census_summary(census)
    delta, out = model.timing.slot_us, {}
    for k in range(model.kmax + 1):
        for s in range(model.num_states):
            t = k * delta + model.timing.t_suc(s)
            out[t] = out.get(t, 0.0) + succ[k, s] * model.per[s]
        t = k * delta + model.timing.t_col()
        out[t] = out.get(t, 0.0) + col[k]
    return out


def scalar_row(census, n, t_us, lam, index):
    """Destination law over censuses of n pairs after a window of t_us."""
    row = np.zeros(len(index))
    if n == 0:
        row[0] = 1.0
        return row
    counts = (n - sum(census),) + census
    for deltas, dest in transition_deltas(counts):
        row[index[dest]] += transition_prob(counts, deltas, t_us, lam)
    return row


def combined(i, others):
    k = list(others)
    if i != S0:
        k[i - 1] += 1
    return tuple(k)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 35.0, 400.0])
def test_renewal_rows_match_scalar_reference(n, lam, timing):
    model, _ = make_model(n, lam, timing)
    for ci, census in enumerate(model.censuses):
        if census == (0, 0, 0):
            continue  # the idle row is closed form (test_analysis)
        want = sum(w * scalar_row(census, n, t, lam, model.cidx)
                   for t, w in continuation_windows(model, census).items())
        assert np.abs(model._renewal_m[ci] - want).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 35.0, 400.0])
def test_tagged_rows_match_scalar_reference(n, lam, timing):
    model, _ = make_model(n, lam, timing)
    nl = len(model.others)
    for i in PAIR_STATES:
        for lo, others in enumerate(model.others):
            if combined(i, others) == (0, 0, 0):
                continue  # the idle row is closed form
            want = np.zeros(4 * nl)
            for t, w in continuation_windows(model, combined(i, others)).items():
                orow = scalar_row(others, n - 1, t, lam, model.oidx)
                for j, fj in pair_transition_probs(i, t, lam).items():
                    want[j * nl:(j + 1) * nl] += w * fj * orow
            got = model._tagged_m[model._tidx(i, lo)]
            assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("lam", [0.0, 60.0])
def test_tagged_rhs_matches_p_hat_minislot(n, lam, timing):
    model, kt = make_model(n, lam, timing)
    for i in PAIR_STATES:
        for lo, others in enumerate(model.others):
            got = model._tagged_rhs[model._tidx(i, lo)]
            if combined(i, others) == (0, 0, 0):
                assert (got == 0.0).all()
                continue
            counts = (n - 1 - sum(others),) + others
            want = [p_hat_minislot(side, i, counts, kt, PER) for side in (AP, STA)]
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [2, 7])
@pytest.mark.parametrize("lam", [0.0, 35.0, 400.0])
def test_row_mass_is_continuation_probability(n, lam, timing):
    model, _ = make_model(n, lam, timing)
    for ci, census in enumerate(model.censuses):
        if census != (0, 0, 0):
            cont = sum(continuation_windows(model, census).values())
            assert abs(model._renewal_m[ci].sum() - cont) <= 1e-14
    for i in PAIR_STATES:
        for lo, others in enumerate(model.others):
            if combined(i, others) != (0, 0, 0):
                cont = sum(continuation_windows(model, combined(i, others)).values())
                assert abs(model._tagged_m[model._tidx(i, lo)].sum() - cont) <= 1e-14
