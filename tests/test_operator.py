"""The census transition operator, the tagged right-hand side and the level
sweep of ``CycleModel`` against the exact references in ``oracles``."""

import numpy as np
import pytest

from oppmac import AP, STA, ConsistencyError, CycleModel, TimerPolicy, build_kernels
from oppmac.analysis import level_sweep
from oppmac.kernels import PAIR_STATES, S0

from oracles import (
    dense_solve,
    p_hat_minislot,
    pair_transition_probs,
    transition_deltas,
    transition_prob,
)

PI = (0.1, 0.2, 0.3, 0.4)
PER = (0.1, 0.25, 0.0, 0.4)  # a zero-PER state has no errored-success windows


def make_model(n, lam, timing):
    kt = build_kernels(TimerPolicy(), np.asarray(PI), lam)
    return CycleModel(kt, timing, PER, lam, n), kt


def continuation_windows(model, census):
    """{window t_us: probability the period ends without a success after t}."""
    ci = model.cidx[census]
    succ, col = model.succ[ci], model.col[ci]
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


# ------------------------------------------------------------- level sweep

def levels(model):
    """Nonempty-queue count of every renewal unknown and of every tagged
    unknown (the tagged pair's own queues included), from the census tuples."""
    of = lambda census: census[0] + census[1] + 2 * census[2]
    renewal = np.array([of(c) for c in model.censuses])
    tagged = np.array([own + of(c) for own in (0, 1, 1, 2) for c in model.others])
    return renewal, tagged


@pytest.mark.parametrize("n", [2, 4, 7, 10])
@pytest.mark.parametrize("lam", [0.0, 40.0, 80.0])
def test_every_move_raises_the_level(n, lam, timing):
    """Periods in M end without a success, so no queue empties: every
    off-diagonal nonzero of both systems moves to a strictly higher level."""
    model, _ = make_model(n, lam, timing)
    for m, level in zip((model._renewal_m, model._tagged_m), levels(model)):
        src, dst = np.nonzero(m)
        off = src != dst
        assert (level[dst[off]] > level[src[off]]).all()


@pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
@pytest.mark.parametrize("lam", [0.0, 35.0, 400.0])
def test_sweep_matches_dense_solve(n, lam, timing):
    model, _ = make_model(n, lam, timing)
    # with no arrivals the empty census never ends: its E[R] is infinite
    want = np.full(len(model.censuses), np.inf)
    keep = np.ones(len(model.censuses), bool)
    keep[model.cidx[(0, 0, 0)]] = lam > 0.0
    want[keep] = dense_solve(model._renewal_m[np.ix_(keep, keep)], model._renewal_c[keep])
    got = model.renewal_by_census
    assert np.array_equal(np.isinf(got), np.isinf(want))
    np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12, atol=0)
    want = dense_solve(model._tagged_m, model._tagged_rhs)
    np.testing.assert_allclose(model.tagged_ap, want[:, 0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(model.tagged_sta, want[:, 1], rtol=1e-12, atol=0)


def test_sweep_solves_hand_example():
    m = np.array([[0.5, 0.25, 0.0],
                  [0.0, 0.0, 0.5],
                  [0.0, 0.0, 0.75]])
    c = np.array([1.0, 2.0, 3.0])
    level = np.array([0, 1, 2])
    x = level_sweep(m, c, level)
    # x2 = 3 / (1 - 0.75), x1 = 2 + 0.5 x2, x0 = (1 + 0.25 x1) / (1 - 0.5)
    np.testing.assert_allclose(x, [6.0, 8.0, 12.0], rtol=1e-15)
    np.testing.assert_allclose(level_sweep(m, np.stack([c, 2 * c], 1), level),
                               np.stack([x, 2 * x], 1), rtol=1e-15)


@pytest.mark.parametrize("level", [[0, 0, 1],   # 0 -> 1 inside level 0
                                   [1, 0, 2]])  # 0 -> 1 moves down a level
def test_sweep_rejects_moves_that_do_not_raise_the_level(level):
    m = np.array([[0.1, 0.2, 0.0],
                  [0.0, 0.3, 0.4],
                  [0.0, 0.0, 0.5]])
    with pytest.raises(ConsistencyError, match="row 0 of m has a move that does not"):
        level_sweep(m, np.ones(3), np.array(level))


@pytest.mark.parametrize("diag", [1.0, 1.5, np.nan])
def test_sweep_rejects_diagonal_not_below_one(diag):
    m = np.array([[0.1, 0.2],
                  [0.0, diag]])
    with pytest.raises(ConsistencyError, match="diagonal entry of m at level 1 is not"):
        level_sweep(m, np.ones(2), np.array([0, 1]))
