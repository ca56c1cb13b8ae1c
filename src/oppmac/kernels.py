"""Exact per-pair timer-expiry kernels of one contention period.

One contention period starts at an instant tau after the channel has been
free for DIFS.  Queues that are nonempty at tau set a backoff timer at slot
0; a queue that is empty at tau and receives an arrival during the slot
interval (m-1, m] sets its timer at slot m, with per-slot arrival
probability q = 1 - exp(-lambda * delta).  The two queues of a pair share
one channel state per period (reciprocity), drawn when the first of them
sets a timer.  A queue's expiry slot is its set slot plus its timer draw.

Once the pair's channel state h is fixed the two timers are independent, so
each kernel is a product of two one-queue expiry laws.  A queue's law is

  e[k, l] = P(set slot = k - l) * P(timer = l | h),

with the set-slot pmf a point mass at 0 for a nonempty queue and the
geometric joiner law for an empty one, and the timer pmf taken from
``TimerPolicy.slot_probs``.  For each pair occupancy state s_i this module
tabulates, summed over h with weight pi_h:

  * P^{s_i}(k; l; AP)      = e_AP[k, l] * P(STA expiry > k): the AP queue
                           expires strictly first, at slot k, having drawn
                           a timer of l slots,
  * P^{s_i}(k; l; STA)     = e_STA[k, l] * P(AP expiry > k),
  * P^{s_i}(k; l; AP+STA)  = e_AP[k, l] * P(STA expiry = k): both queues
                           expire together at k (l records the AP draw),
  * S_i(k) = P(tau_min^i > k) = 1 - (first-expiry mass up to k), the pair
    survival function.

``analysis.CycleModel`` builds the success, collision, per-side win and
transition probabilities of a census from the survival functions and the
per-state masses ``ap_by_state`` / ``sta_by_state`` [s, k, h].

Pair states: s0 = both queues empty, s1 = AP-only nonempty, s2 = STA-only
nonempty, s3 = both nonempty.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import AP, STA, ParameterError, TimerPolicy, check_rate

S0, S1, S2, S3 = 0, 1, 2, 3
PAIR_STATES = (S0, S1, S2, S3)


class ConsistencyError(RuntimeError):
    """Computed probabilities violate an exact identity beyond rounding."""


class KernelTable:
    """Per-pair-state timer-expiry kernels and survival functions.

    Arrays are indexed [pair_state, k, l] with 0 <= l <= k <= t_max; the
    survival array ``surv[i, k + 1]`` = P(tau_min^i > k) carries one extra
    leading entry, ``surv[i, 0]`` = 1, for k = -1.
    """

    def __init__(self, policy: TimerPolicy, lambda_pps: float, ap: np.ndarray,
                 sta: np.ndarray, both: np.ndarray, surv: np.ndarray):
        self.policy = policy
        self.lambda_pps = lambda_pps
        self.t_max = policy.t_max
        self.ap = ap
        self.sta = sta
        self.both = both
        self.surv = surv
        self.cum_ap = ap.sum(axis=2)
        # [s, k, h]: the AP / STA kernel mass grouped by the state h its timer
        # implies; timers 2j and 2j + 1 mean state num_states - 1 - j
        self.ap_by_state, self.sta_by_state = (
            np.ascontiguousarray(x.reshape(4, self.t_max + 1, -1, 2).sum(axis=3)[:, :, ::-1])
            for x in (ap, sta))


def build_kernels(policy: TimerPolicy, pi: np.ndarray, lambda_pps: float) -> KernelTable:
    """Tabulate the within-pair expiry kernels for all pair states.

    Given the pair's channel state h the two queues expire independently, so
    each kernel is pi_h times a product of the two queues' expiry laws,
    summed over h.  The vulnerability window is the policy slot ``delta_us``.
    """
    pi = np.asarray(pi, dtype=float)
    if len(pi) != policy.num_states:
        raise ParameterError("pi length does not match the timer policy")
    if not (abs(pi.sum() - 1.0) <= 1e-9 and (pi >= 0).all()):  # NaN fails it too
        raise ParameterError("pi must be a probability vector")
    check_rate(lambda_pps)
    kmax = policy.t_max
    q = -math.expm1(-(lambda_pps * 1e-6) * policy.delta_us)  # per-slot join probability

    # set-slot pmf and P(set slot > j), j = 0..kmax: a queue nonempty at tau
    # sets at slot 0; an empty queue joins at slot m >= 1 with geometric law
    j = np.arange(kmax + 1)
    later = (1.0 - q) ** j
    head = (np.eye(1, kmax + 1)[0], np.zeros(kmax + 1))
    joiner = (np.append(0.0, q * later[:-1]), later)
    lag = kmax + j[:, None] - j  # [k, l] -> k - l, offset past kmax padding entries

    def expiry(sets: tuple, side: str) -> tuple[np.ndarray, np.ndarray]:
        """One side's [s, h, k, l] = P(set at k - l) P(timer l) in state h,
        and [s, h, k] = P(expiry > k), for the set laws of pair states s."""
        timer = np.array([[policy.slot_probs(h, side).get(l, 0.0) for l in range(kmax + 1)]
                          for h in range(policy.num_states)])[None, :, None, :]
        pmf = np.stack([np.append(np.zeros(kmax), f)[lag] for f, _ in sets])
        tail = np.stack([np.append(np.ones(kmax), g)[lag] for _, g in sets])
        return pmf[:, None] * timer, (tail[:, None] * timer).sum(axis=3)

    ap_at, ap_later = expiry((joiner, head, joiner, head), AP)
    sta_at, sta_later = expiry((joiner, joiner, head, head), STA)
    ap = np.einsum("h,shkl,shk->skl", pi, ap_at, sta_later)
    sta = np.einsum("h,shkl,shk->skl", pi, sta_at, ap_later)
    both = np.einsum("h,shkl,shk->skl", pi, ap_at, sta_at.sum(axis=3))
    # mass with no expiry inside the horizon stays in the survival tail
    expired_by = np.cumsum((ap + sta + both).sum(axis=2), axis=1)  # P(min <= k)
    surv = np.hstack([np.ones((4, 1)), np.maximum(0.0, 1.0 - expired_by)])
    return KernelTable(policy, lambda_pps, ap, sta, both, surv)


def _legval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Legendre series with coefficients c at x, by numpy's ``legval``
    recursion (Clenshaw's) with its bracketing of each product."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1, nd = c[-2], c[-1], len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [-1, 1] by the steps, and so the
    values, of numpy's ``leggauss``, without importing ``numpy.polynomial``:
    the roots of P_m are the eigenvalues of its symmetric companion matrix,
    refined by one Newton step, and the weights 1 / (P_m' P_{m-1}) at them
    are scaled to sum to 2."""
    c = np.zeros(m + 1)
    c[m] = 1.0
    j = np.arange(m)
    # P_m' = sum of (2j + 1) P_j over the j < m with m - j odd
    der = np.where((m - j) % 2 == 1, 2.0 * j + 1.0, 0.0)
    mat = np.zeros((m, m))
    scl = 1.0 / np.sqrt(2 * j + 1)
    mat.reshape(-1)[1::m + 1] = mat.reshape(-1)[m::m + 1] = j[1:] * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(mat)
    df = _legval(x, der)
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2  # both symmetric about 0
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


@functools.lru_cache(maxsize=None)
def _gl_nodes(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1], exact to the given degree;
    cached, so the arrays are read-only."""
    x, w = _leggauss(max(1, (degree + 2) // 2))
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
