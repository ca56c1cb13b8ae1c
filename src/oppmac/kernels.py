"""Exact contention-period probabilities.

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
  * S_i(k) = P(tau_min^i > k), the pair survival function,

and combines them into system-level success, collision, tagged-minislot,
and inter-period transition probabilities for a census of N pairs.

Pair states: s0 = both queues empty, s1 = AP-only nonempty, s2 = STA-only
nonempty, s3 = both nonempty.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import AP, STA, ParameterError, TimerPolicy, state_from_timer

S0, S1, S2, S3 = 0, 1, 2, 3
PAIR_STATES = (S0, S1, S2, S3)
PAIR_STATE_NAMES = ("s0", "s1", "s2", "s3")


class ConsistencyError(RuntimeError):
    """Computed probabilities violate an exact identity beyond rounding."""


@dataclass(frozen=True)
class SystemCensus:
    """Occupancy census (k1, k2, k3) of N queue pairs; n0 pairs are empty."""

    k1: int
    k2: int
    k3: int
    n: int

    def __post_init__(self):
        if min(self.k1, self.k2, self.k3) < 0 or self.n < 1:
            raise ParameterError("census counts must be nonnegative, n >= 1")
        if self.k1 + self.k2 + self.k3 > self.n:
            raise ParameterError("census counts exceed number of pairs")

    @property
    def n0(self) -> int:
        return self.n - self.k1 - self.k2 - self.k3

    def counts(self) -> tuple[int, int, int, int]:
        return (self.n0, self.k1, self.k2, self.k3)

    def is_empty(self) -> bool:
        return self.k1 == self.k2 == self.k3 == 0


@dataclass(frozen=True)
class TaggedCensus:
    """One distinguished pair in state ``tagged`` plus a census of the rest."""

    tagged: int
    l1: int
    l2: int
    l3: int
    n: int

    def __post_init__(self):
        if self.tagged not in PAIR_STATES:
            raise ParameterError(f"tagged state must be one of {PAIR_STATES}")
        if min(self.l1, self.l2, self.l3) < 0 or self.n < 1:
            raise ParameterError("counts must be nonnegative, n >= 1")
        if self.l1 + self.l2 + self.l3 > self.n - 1:
            raise ParameterError("nontagged counts exceed N - 1")

    @property
    def l0(self) -> int:
        return self.n - 1 - self.l1 - self.l2 - self.l3

    def others(self) -> tuple[int, int, int, int]:
        return (self.l0, self.l1, self.l2, self.l3)

    def census(self) -> SystemCensus:
        k = [0, self.l1, self.l2, self.l3]
        if self.tagged != S0:
            k[self.tagged] += 1
        return SystemCensus(k[1], k[2], k[3], self.n)


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


def build_kernels(policy: TimerPolicy, pi: np.ndarray, lambda_pps: float,
                  slot_us: float | None = None) -> KernelTable:
    """Enumerate the exact within-pair expiry kernels for all pair states.

    ``slot_us`` defaults to the policy slot; the vulnerability window and the
    system slot are assumed equal.
    """
    pi = np.asarray(pi, dtype=float)
    if len(pi) != policy.num_states:
        raise ParameterError("pi length does not match the timer policy")
    if abs(pi.sum() - 1.0) > 1e-9 or (pi < 0).any():
        raise ParameterError("pi must be a probability vector")
    if lambda_pps < 0:
        raise ParameterError("arrival rate must be nonnegative")
    delta = policy.delta_us if slot_us is None else slot_us
    if abs(delta - policy.delta_us) > 1e-12:
        raise ParameterError("vulnerability window must equal the slot length")

    kmax = policy.t_max
    q = -math.expm1(-(lambda_pps * 1e-6) * delta)  # per-slot join probability

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


def _tiebreak_weight(kernels: KernelTable, others: tuple[int, int, int, int],
                     k: int) -> float:
    """Expected win share of a tagged AP queue expiring first-in-pair at k.

    Sums over how many of the other pairs' AP queues also expire (cleanly)
    at k, each such configuration weighted by the uniform pick among the
    1 + sum(a_j) simultaneously expired AP queues; all remaining pairs must
    survive past k.  Evaluated exactly through the identity
    1/(1+s) = integral_0^1 x^s dx, which turns the configuration sum into a
    polynomial of degree sum(others).
    """
    xs, ws = _gl_nodes(sum(others))
    total = 0.0
    for x, w in zip(xs, ws):
        prod = 1.0
        for j in PAIR_STATES:
            if others[j]:
                prod *= (kernels.survival(j, k) + x * kernels.cum_ap[j, k]) ** others[j]
        total += w * prod
    return total


def p_suc_sta(i: int, k: int, l: int, census: SystemCensus,
              kernels: KernelTable) -> float:
    """Probability that the STA queue of some s_i pair wins alone at slot k
    with timer length l: its own pair kernel times survival of every other
    pair strictly past k."""
    n = census.counts()
    if n[i] == 0:
        return 0.0
    val = n[i] * kernels.sta[i, k, l] * kernels.survival(i, k) ** (n[i] - 1)
    for j in PAIR_STATES:
        if j != i:
            val *= kernels.survival(j, k) ** n[j]
    return val


def p_suc_ap(i: int, k: int, l: int, census: SystemCensus,
             kernels: KernelTable) -> float:
    """Probability that an AP queue of some s_i pair wins at slot k with
    timer length l.

    Several AP queues may expire together at k without collision; the AP
    picks one uniformly.  No STA queue may expire at or before k.
    """
    n = census.counts()
    if n[i] == 0:
        return 0.0
    others = tuple(n[j] - (1 if j == i else 0) for j in PAIR_STATES)
    return n[i] * kernels.ap[i, k, l] * _tiebreak_weight(kernels, others, k)


def _p_suc_ap_config_sum(i: int, k: int, l: int, census: SystemCensus,
                         kernels: KernelTable) -> float:
    """Reference evaluation of p_suc_ap by explicit configuration sums."""
    n = census.counts()
    if n[i] == 0:
        return 0.0
    others = [n[j] - (1 if j == i else 0) for j in PAIR_STATES]
    total = 0.0
    for a0 in range(others[0] + 1):
        for a1 in range(others[1] + 1):
            for a2 in range(others[2] + 1):
                for a3 in range(others[3] + 1):
                    a = (a0, a1, a2, a3)
                    w = 1.0 / (1 + sum(a))
                    for j in PAIR_STATES:
                        w *= (math.comb(others[j], a[j])
                              * kernels.cum_ap[j, k] ** a[j]
                              * kernels.survival(j, k) ** (others[j] - a[j]))
                    total += w
    return n[i] * kernels.ap[i, k, l] * total


def p_col(k: int, census: SystemCensus, kernels: KernelTable) -> float:
    """Collision probability at slot k: something expires at k but neither a
    lone STA nor an AP-only group wins cleanly."""
    if not 0 <= k <= kernels.t_max:
        raise ParameterError(f"slot {k} outside 0..{kernels.t_max}")
    n = census.counts()
    before = after = 1.0
    for j in PAIR_STATES:
        before *= kernels.survival(j, k - 1) ** n[j]
        after *= kernels.survival(j, k) ** n[j]
    success = 0.0
    for i in PAIR_STATES:
        if n[i] == 0:
            continue
        others = tuple(n[j] - (1 if j == i else 0) for j in PAIR_STATES)
        success += n[i] * kernels.cum_ap[i, k] * _tiebreak_weight(kernels, others, k)
        sta_surv = kernels.survival(i, k) ** (n[i] - 1)
        for j in PAIR_STATES:
            if j != i:
                sta_surv *= kernels.survival(j, k) ** n[j]
        success += n[i] * kernels.cum_sta[i, k] * sta_surv
    val = before - after - success
    if val < 0.0:
        if val < -1e-12:
            raise ConsistencyError(
                f"collision probability {val} at k={k} for census {census}")
        val = 0.0
    return val


def p_hat_minislot(side: str, tagged: TaggedCensus, kernels: KernelTable,
                   per: np.ndarray) -> float:
    """Probability the tagged queue wins the minislot and transmits without
    error, given the tagged pair state and the census of the other pairs.

    The AP side may share its expiry slot with other AP queues and still win
    through the AP's uniform pick; the STA side requires every other queue
    to survive strictly past its slot.
    """
    i = tagged.tagged
    others = tagged.others()
    per = np.asarray(per, dtype=float)
    total = 0.0
    for k in range(kernels.t_max + 1):
        if side == AP:
            weight = _tiebreak_weight(kernels, others, k)
            row = kernels.ap[i, k, :k + 1]
        elif side == STA:
            weight = 1.0
            for j in PAIR_STATES:
                weight *= kernels.survival(j, k) ** others[j]
            row = kernels.sta[i, k, :k + 1]
        else:
            raise ParameterError(f"side must be 'ap' or 'sta', got {side!r}")
        if weight == 0.0:
            continue
        states = kernels.state_of_l[:k + 1]
        total += weight * float(np.sum(row * (1.0 - per[states])))
    return total


def transition_prob(census: SystemCensus, deltas: tuple[int, int, int, int, int],
                    t_us: float, lambda_pps: float) -> float:
    """Probability that ``deltas = (a, b, c, d, e)`` pairs gain occupancy
    during a window of ``t_us``: a of the s1 and b of the s2 pairs become
    full, and c/d/e empty pairs turn AP-only/STA-only/full.  Each empty
    queue independently receives an arrival with 1 - exp(-lambda*t)."""
    a, b, c, d, e = deltas
    n0 = census.n0
    if a < 0 or b < 0 or c < 0 or d < 0 or e < 0:
        return 0.0
    if a > census.k1 or b > census.k2 or c + d + e > n0:
        return 0.0
    p = -math.expm1(-(lambda_pps * 1e-6) * t_us)
    rest = n0 - c - d - e
    coeff = (math.comb(census.k1, a) * math.comb(census.k2, b)
             * math.comb(n0, c) * math.comb(n0 - c, d) * math.comb(n0 - c - d, e))
    return (coeff
            * p ** (a + b + c + d + 2 * e)
            * (1.0 - p) ** (census.k1 - a + census.k2 - b + c + d + 2 * rest))


def transition_deltas(census: SystemCensus):
    """All (a, b, c, d, e) reachable from the census, with destinations."""
    out = []
    n0 = census.n0
    for a in range(census.k1 + 1):
        for b in range(census.k2 + 1):
            for c in range(n0 + 1):
                for d in range(n0 - c + 1):
                    for e in range(n0 - c - d + 1):
                        dest = (census.k1 - a + c, census.k2 - b + d,
                                census.k3 + a + b + e)
                        out.append(((a, b, c, d, e), dest))
    return out


def pair_transition_probs(state: int, t_us: float, lambda_pps: float) -> dict[int, float]:
    """Occupancy transition law of a single pair over a window: queues only
    fill (a nonempty queue keeps its packet until it is served)."""
    p = -math.expm1(-(lambda_pps * 1e-6) * t_us)
    if state == S0:
        return {S0: (1 - p) ** 2, S1: p * (1 - p), S2: (1 - p) * p, S3: p * p}
    if state == S1:
        return {S1: 1 - p, S3: p}
    if state == S2:
        return {S2: 1 - p, S3: p}
    return {S3: 1.0}


def dump_kernels_csv(kernels: KernelTable, path) -> None:
    """Regression/inspection dump of every kernel entry and survival value."""
    lines = ["state,k,l,p_ap,p_sta,p_both"]
    for s in PAIR_STATES:
        for k in range(kernels.t_max + 1):
            for l in range(k + 1):
                lines.append(
                    f"{PAIR_STATE_NAMES[s]},{k},{l},{kernels.ap[s, k, l]!r},"
                    f"{kernels.sta[s, k, l]!r},{kernels.both[s, k, l]!r}")
    lines.append("state,k,survival,,,")
    for s in PAIR_STATES:
        for k in range(-1, kernels.t_max + 1):
            lines.append(f"{PAIR_STATE_NAMES[s]},{k},{kernels.survival(s, k)!r},,,")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def dump_census_probs_csv(census: SystemCensus, kernels: KernelTable, path) -> None:
    """Per-census success/collision table for inspection."""
    lines = ["kind,state,k,l,probability"]
    for k in range(kernels.t_max + 1):
        for i in PAIR_STATES:
            for l in range(k + 1):
                v_ap = p_suc_ap(i, k, l, census, kernels)
                v_sta = p_suc_sta(i, k, l, census, kernels)
                if v_ap:
                    lines.append(f"suc_ap,{PAIR_STATE_NAMES[i]},{k},{l},{v_ap!r}")
                if v_sta:
                    lines.append(f"suc_sta,{PAIR_STATE_NAMES[i]},{k},{l},{v_sta!r}")
        lines.append(f"col,,{k},,{p_col(k, census, kernels)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
