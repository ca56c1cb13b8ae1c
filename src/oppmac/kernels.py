"""Exact per-pair timer-expiry kernels of one contention period.

One contention period starts at an instant tau after the channel has been
free for DIFS.  Queues that are nonempty at tau set a backoff timer at slot
0; a queue that is empty at tau and receives an arrival during the slot
interval (m-1, m] sets its timer at slot m, with per-slot arrival
probability q = 1 - exp(-lambda * delta).  The two queues of a pair share
one channel state per period (reciprocity), drawn when the first of them
sets a timer.  A queue's expiry slot is its set slot plus its timer draw.

This module tabulates, for each pair occupancy state s_i:

  * P^{s_i}(k; l; AP)      AP queue expires strictly first within its pair,
                           at slot k, having drawn a timer of l slots,
  * P^{s_i}(k; l; STA)     same for the STA queue,
  * P^{s_i}(k; l; AP+STA)  both queues of the pair expire together at k
                           (l records the AP draw),
  * S_i(k) = P(tau_min^i > k), the pair survival function.

``analysis.CycleModel`` combines them into the system-level success,
collision, tagged-minislot and transition probabilities of a census.

Pair states: s0 = both queues empty, s1 = AP-only nonempty, s2 = STA-only
nonempty, s3 = both nonempty.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import ParameterError, TimerPolicy, state_from_timer

S0, S1, S2, S3 = 0, 1, 2, 3
PAIR_STATES = (S0, S1, S2, S3)


class ConsistencyError(RuntimeError):
    """Computed probabilities violate an exact identity beyond rounding."""


class KernelTable:
    """Per-pair-state timer-expiry kernels and survival functions.

    Arrays are indexed [pair_state, k, l] with 0 <= l <= k <= t_max; the
    survival array carries one extra leading entry so that
    ``survival(i, -1) == 1``.
    """

    def __init__(self, policy: TimerPolicy, pi: np.ndarray, lambda_pps: float,
                 ap: np.ndarray, sta: np.ndarray, both: np.ndarray,
                 surv: np.ndarray):
        self.policy = policy
        self.pi = pi
        self.lambda_pps = lambda_pps
        self.t_max = policy.t_max
        self.ap = ap
        self.sta = sta
        self.both = both
        self._surv = surv
        self.cum_ap = ap.sum(axis=2)
        self.cum_sta = sta.sum(axis=2)
        self.cum_both = both.sum(axis=2)
        # timer length -> channel state, used to weight PER / airtime by rate
        self.state_of_l = np.array(
            [state_from_timer(policy, l) for l in range(self.t_max + 1)])

    def survival(self, i: int, k: int) -> float:
        """P(tau_min^i > k) for k in -1 .. t_max."""
        return float(self._surv[i, k + 1])

    def survival_row(self, i: int) -> np.ndarray:
        """Survival values at k = 0 .. t_max."""
        return self._surv[i, 1:]


def build_kernels(policy: TimerPolicy, pi: np.ndarray, lambda_pps: float) -> KernelTable:
    """Enumerate the exact within-pair expiry kernels for all pair states.

    The vulnerability window is the policy slot ``delta_us``.
    """
    pi = np.asarray(pi, dtype=float)
    if len(pi) != policy.num_states:
        raise ParameterError("pi length does not match the timer policy")
    if abs(pi.sum() - 1.0) > 1e-9 or (pi < 0).any():
        raise ParameterError("pi must be a probability vector")
    if lambda_pps < 0:
        raise ParameterError("arrival rate must be nonnegative")
    kmax = policy.t_max
    q = -math.expm1(-(lambda_pps * 1e-6) * policy.delta_us)  # per-slot join probability

    # set-slot pmfs: a queue nonempty at tau sets at slot 0; an empty queue
    # joins at slot m >= 1 with geometric probability, or never (tail).
    head = ([(0, 1.0)], 0.0)
    if q > 0.0:
        joiner_pmf = [(m, q * (1.0 - q) ** (m - 1)) for m in range(1, kmax + 1)]
        joiner = (joiner_pmf, (1.0 - q) ** kmax)
    else:
        joiner = ([], 1.0)
    sets_by_state = {
        S0: (joiner, joiner),
        S1: (head, joiner),
        S2: (joiner, head),
        S3: (head, head),
    }

    ap = np.zeros((4, kmax + 1, kmax + 1))
    sta = np.zeros((4, kmax + 1, kmax + 1))
    both = np.zeros((4, kmax + 1, kmax + 1))
    surv = np.zeros((4, kmax + 2))

    for s in PAIR_STATES:
        (ap_set, ap_tail), (sta_set, sta_tail) = sets_by_state[s]
        first_expiry = np.zeros(kmax + 1)  # pmf of min expiry over 0..kmax
        for h in range(policy.num_states):
            b = policy.base_slot(h)
            ap_draws = ((b, policy.p), (b + 1, 1.0 - policy.p))
            sta_draws = ((b, 1.0 - policy.p), (b + 1, policy.p))
            for m_a, w_ma in ap_set:
                for l_a, w_la in ap_draws:
                    k_a = m_a + l_a
                    w_a = w_ma * w_la
                    # both queues set timers
                    for m_s, w_ms in sta_set:
                        for l_s, w_ls in sta_draws:
                            k_s = m_s + l_s
                            w = pi[h] * w_a * w_ms * w_ls
                            lo = min(k_a, k_s)
                            if lo <= kmax:
                                if k_a < k_s:
                                    ap[s, k_a, l_a] += w
                                elif k_s < k_a:
                                    sta[s, k_s, l_s] += w
                                else:
                                    both[s, k_a, l_a] += w
                                first_expiry[lo] += w
                    # AP finite, STA never sets a timer
                    w = pi[h] * w_a * sta_tail
                    if k_a <= kmax:
                        ap[s, k_a, l_a] += w
                        first_expiry[k_a] += w
            # STA finite, AP never
            for m_s, w_ms in sta_set:
                for l_s, w_ls in sta_draws:
                    k_s = m_s + l_s
                    w = pi[h] * ap_tail * w_ms * w_ls
                    if k_s <= kmax:
                        sta[s, k_s, l_s] += w
                        first_expiry[k_s] += w
            # mass with no expiry inside the horizon stays in the survival tail

        expired_by = np.cumsum(first_expiry)  # P(min <= k), k = 0..kmax
        surv[s, 0] = 1.0
        for k in range(kmax + 1):
            surv[s, k + 1] = max(0.0, 1.0 - float(expired_by[k]))

    return KernelTable(policy, pi, lambda_pps, ap, sta, both, surv)


@functools.lru_cache(maxsize=None)
def _gl_nodes(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1], exact to the given degree;
    cached, so the arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(max(1, (degree + 2) // 2))
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
