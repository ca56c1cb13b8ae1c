"""Test references for contention-period probabilities.

The Monte-Carlo oracles sample one contention period directly from the
protocol description (set slots, shared per-pair channel state, two-slot
timer draws, first-expiry resolution with AP-side merging) without touching
the analytic kernel code.  The AP's uniform pick among simultaneously
expired AP queues and the packet error coin are averaged analytically within
each sampled trial, which lowers variance without coupling the oracle to the
implementation under test.  The exact kernel enumeration lists every joint
outcome of one pair.  The exact scalar references after it evaluate the
census-level probabilities term by term from the kernel tables; the
occupancy priors, the per-source move table, the dense census system (win
probabilities and renewal length) built from the scalar arrival law and the
dense linear solve are references for the model's census vectors, its cells
and its level sweep.  ``capacity_search`` reads a capacity off the fixed
point over a rate grid.  Bianchi's saturation model is the reference for the
DCF simulator.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from oppmac import AP, STA, ConsistencyError, ParameterError, fixed_points
from oppmac.analysis import CensusSpace

BIG = 1 << 20  # sentinel: no timer set within the horizon


def _join_slots(rng, trials, q, tmax):
    if q <= 0.0:
        return np.full(trials, BIG, dtype=np.int64)
    m = rng.geometric(q, size=trials).astype(np.int64)
    return np.where(m <= tmax, m, BIG)


def sample_pairs(rng, trials, tags, pi, p, q, tmax):
    """Expiry slots and draw lengths for each pair over one period.

    tags: per-pair occupancy state (0 both empty .. 3 both full).  Returns
    (k_ap, l_ap, k_sta, l_sta) of shape (trials, npairs); k == BIG marks a
    queue that never sets a timer inside the horizon.
    """
    n = len(tags)
    h_states = len(pi)
    h = rng.choice(h_states, size=(trials, n), p=np.asarray(pi, dtype=float))
    base = 2 * (h_states - 1 - h)
    l_ap = base + (rng.random((trials, n)) >= p)
    l_sta = base + (rng.random((trials, n)) >= 1.0 - p)
    set_ap = np.zeros((trials, n), dtype=np.int64)
    set_sta = np.zeros((trials, n), dtype=np.int64)
    for j, tag in enumerate(tags):
        if tag in (0, 2):  # AP queue empty at the period start
            set_ap[:, j] = _join_slots(rng, trials, q, tmax)
        if tag in (0, 1):  # STA queue empty
            set_sta[:, j] = _join_slots(rng, trials, q, tmax)
    k_ap = np.where(set_ap >= BIG, BIG, set_ap + l_ap)
    k_sta = np.where(set_sta >= BIG, BIG, set_sta + l_sta)
    return k_ap, l_ap.astype(np.int64), k_sta, l_sta.astype(np.int64)


def kernel_oracle(seed, trials, tag, pi, p, q, tmax):
    """Empirical per-pair kernels: (ap[k,l], sta[k,l], both[k,l], surv[k]).

    Ties are binned at the AP draw length, matching the table's indexing
    convention (the tie length never enters any downstream probability).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    k_ap, l_ap, k_sta, l_sta = sample_pairs(rng, trials, [tag], pi, p, q, tmax)
    k_ap, l_ap, k_sta, l_sta = k_ap[:, 0], l_ap[:, 0], k_sta[:, 0], l_sta[:, 0]
    m_ap = (k_ap < k_sta) & (k_ap <= tmax)
    m_sta = (k_sta < k_ap) & (k_sta <= tmax)
    m_tie = (k_ap == k_sta) & (k_ap <= tmax)
    ap = _tally(k_ap[m_ap], l_ap[m_ap], tmax)
    sta = _tally(k_sta[m_sta], l_sta[m_sta], tmax)
    both = _tally(k_ap[m_tie], l_ap[m_tie], tmax)
    kmin = np.minimum(k_ap, k_sta)
    surv = np.array([(kmin > k).mean() for k in range(tmax + 1)])
    return ap / trials, sta / trials, both / trials, surv


def _tally(k, l, tmax, weights=None):
    """[k, l] histogram; bincount adds the weights in input order."""
    flat = np.bincount(k * (tmax + 1) + l, weights, minlength=(tmax + 1) ** 2)
    return flat.reshape(tmax + 1, tmax + 1).astype(float)


def system_oracle(seed, trials, counts, pi, p, q, tmax, per=None):
    """Empirical system-level contention outcome for one census.

    counts: (n0, n1, n2, n3) pairs per occupancy state.  Returns a dict with
      suc_ap[i, k, l], suc_sta[i, k, l], col[k]  (probabilities), and
      phat_ap[i], phat_sta[i]: win-and-no-error probability of one designated
      pair of each occupied class (the tagged-pair view), using ``per``.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    tags = [1] * counts[1] + [2] * counts[2] + [3] * counts[3] + [0] * counts[0]
    n = len(tags)
    h_states = len(pi)
    k_ap, l_ap, k_sta, l_sta = sample_pairs(rng, trials, tags, pi, p, q, tmax)
    kmin = np.minimum(k_ap.min(axis=1), k_sta.min(axis=1))
    resolved = kmin <= tmax
    nap = (k_ap == kmin[:, None]).sum(axis=1)
    nsta = (k_sta == kmin[:, None]).sum(axis=1)
    ap_clean = resolved & (nsta == 0)
    sta_clean = resolved & (nap == 0) & (nsta == 1)
    col = resolved & ~ap_clean & ~sta_clean

    suc_ap = np.zeros((4, tmax + 1, tmax + 1))
    suc_sta = np.zeros((4, tmax + 1, tmax + 1))
    colk = np.bincount(kmin[col], minlength=tmax + 1).astype(float)
    per = np.zeros(h_states) if per is None else np.asarray(per, dtype=float)
    state_of = lambda l: h_states - 1 - l // 2
    phat_ap = np.zeros(4)
    phat_sta = np.zeros(4)
    first_of_class = {}
    wins = {}  # tag -> per-pair (k, l, weight) of AP wins and of STA wins
    for j, tag in enumerate(tags):
        first_of_class.setdefault(tag, j)
        sel = ap_clean & (k_ap[:, j] == kmin)
        sel2 = sta_clean & (k_sta[:, j] == kmin)
        ap_w, sta_w = wins.setdefault(tag, ([], []))
        ap_w.append((kmin[sel], l_ap[sel, j], 1.0 / nap[sel]))
        sta_w.append((kmin[sel2], l_sta[sel2, j]))
    # one tally per class over its pairs in order: the sums run in the same
    # order as accumulating pair after pair
    for tag, (ap_w, sta_w) in wins.items():
        k, l, w = map(np.concatenate, zip(*ap_w))
        suc_ap[tag] = _tally(k, l, tmax, w)
        k, l = map(np.concatenate, zip(*sta_w))
        suc_sta[tag] = _tally(k, l, tmax)
    for tag, j in first_of_class.items():
        sel = ap_clean & (k_ap[:, j] == kmin)
        if sel.any():
            w = (1.0 / nap[sel]) * (1.0 - per[state_of(l_ap[sel, j])])
            phat_ap[tag] = w.sum() / trials
        sel2 = sta_clean & (k_sta[:, j] == kmin)
        if sel2.any():
            phat_sta[tag] = (1.0 - per[state_of(l_sta[sel2, j])]).sum() / trials
    return {
        "suc_ap": suc_ap / trials,
        "suc_sta": suc_sta / trials,
        "col": colk / trials,
        "phat_ap": phat_ap,
        "phat_sta": phat_sta,
        "class_counts": counts,
    }


def z_scores(analytic, empirical, trials):
    """z statistics |emp - p| / binomial_se(p), elementwise; se floored so
    zero-probability entries require exact-zero counts at ~3 sigma."""
    p = np.asarray(analytic, dtype=float)
    emp = np.asarray(empirical, dtype=float)
    se = np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / trials)
    se = np.maximum(se, 1.0 / trials)
    return np.abs(emp - p) / se


# ---------------------------------------------------------------------------
# Exact per-pair kernels, by enumerating every outcome of one pair.

PAIR_STATES = S0, S1, S2, S3 = (0, 1, 2, 3)


def kernel_enumeration(policy, pi, lambda_pps):
    """Exact (ap, sta, both, surv) per-pair kernel arrays, shaped as in
    ``KernelTable``, by enumerating every joint (AP set slot, AP timer, STA
    set slot, STA timer) outcome of one contention period in each channel
    state.  Writes the timer law out from its definition: the AP side takes
    the even slot of state h with probability p, the STA side with 1 - p."""
    pi = np.asarray(pi, dtype=float)
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

    return ap, sta, both, surv


# ---------------------------------------------------------------------------
# Exact scalar references.  One term at a time, from the definitions, for a
# census given as counts (n0, n1, n2, n3) of pairs per occupancy state: the
# per-(i, k, l) success and collision probabilities, the tagged minislot win,
# and the occupancy transition law over a window.  ``CycleModel`` computes
# the same quantities as arrays; the tests compare it against these exactly.
# They read the per-pair kernel tables and nothing else of the analysis.


def survival(kernels, i, k):
    """P(tau_min^i > k) for k in -1 .. t_max, as a Python float."""
    return float(kernels.surv[i, k + 1])


def _others_of(counts, i):
    """Counts of the pairs other than one s_i pair."""
    return tuple(counts[j] - (1 if j == i else 0) for j in PAIR_STATES)


@functools.cache
def _unit_gauss_legendre(points):
    """Gauss-Legendre nodes and weights mapped to [0, 1], as Python floats."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    return ((nodes + 1.0) / 2.0).tolist(), (weights / 2.0).tolist()


def tiebreak_weight(kernels, others, k):
    """Expected win share of a tagged AP queue expiring first-in-pair at k.

    Sums over how many of the other pairs' AP queues also expire (cleanly)
    at k, each such configuration weighted by the uniform pick among the
    1 + sum(a_j) simultaneously expired AP queues; all remaining pairs must
    survive past k.  Evaluated exactly through the identity
    1/(1+s) = integral_0^1 x^s dx, which turns the configuration sum into a
    polynomial of degree sum(others), integrated by Gauss-Legendre.
    """
    total = 0.0
    for x, w in zip(*_unit_gauss_legendre(max(1, (sum(others) + 2) // 2))):
        prod = 1.0
        for j in PAIR_STATES:
            if others[j]:
                prod *= (survival(kernels, j, k) + x * kernels.cum_ap[j, k]) ** others[j]
        total += w * prod
    return total


def p_suc_sta(i, k, l, counts, kernels):
    """Probability that the STA queue of some s_i pair wins alone at slot k
    with timer length l: its own pair kernel times survival of every other
    pair strictly past k."""
    if counts[i] == 0:
        return 0.0
    val = counts[i] * kernels.sta[i, k, l] * survival(kernels, i, k) ** (counts[i] - 1)
    for j in PAIR_STATES:
        if j != i:
            val *= survival(kernels, j, k) ** counts[j]
    return val


def p_suc_ap(i, k, l, counts, kernels):
    """Probability that an AP queue of some s_i pair wins at slot k with
    timer length l.

    Several AP queues may expire together at k without collision; the AP
    picks one uniformly.  No STA queue may expire at or before k.
    """
    if counts[i] == 0:
        return 0.0
    return counts[i] * kernels.ap[i, k, l] * tiebreak_weight(kernels, _others_of(counts, i), k)


def p_suc_ap_config_sum(i, k, l, counts, kernels):
    """p_suc_ap by the explicit sum over which other AP queues tie at k."""
    if counts[i] == 0:
        return 0.0
    others = _others_of(counts, i)
    total = 0.0
    for a in itertools.product(*(range(m + 1) for m in others)):
        w = 1.0 / (1 + sum(a))
        for j in PAIR_STATES:
            w *= (math.comb(others[j], a[j])
                  * kernels.cum_ap[j, k] ** a[j]
                  * survival(kernels, j, k) ** (others[j] - a[j]))
        total += w
    return counts[i] * kernels.ap[i, k, l] * total


def p_col(k, counts, kernels):
    """Collision probability at slot k: something expires at k but neither a
    lone STA nor an AP-only group wins cleanly."""
    if not 0 <= k <= kernels.t_max:
        raise ParameterError(f"slot {k} outside 0..{kernels.t_max}")
    before = after = 1.0
    for j in PAIR_STATES:
        before *= survival(kernels, j, k - 1) ** counts[j]
        after *= survival(kernels, j, k) ** counts[j]
    success = 0.0
    for i in PAIR_STATES:
        if counts[i] == 0:
            continue
        others = _others_of(counts, i)
        success += counts[i] * kernels.cum_ap[i, k] * tiebreak_weight(kernels, others, k)
        sta_surv = survival(kernels, i, k) ** (counts[i] - 1)
        for j in PAIR_STATES:
            if j != i:
                sta_surv *= survival(kernels, j, k) ** counts[j]
        success += counts[i] * kernels.sta[i, k].sum() * sta_surv
    val = before - after - success
    if val < 0.0:
        if val < -1e-12:
            raise ConsistencyError(
                f"collision probability {val} at k={k} for counts {counts}")
        val = 0.0
    return val


def p_hat_minislot(side, i, others, kernels, per):
    """Probability that the queue on ``side`` of a tagged s_i pair wins the
    minislot and transmits without error, given the counts ``others`` of the
    other pairs.

    The AP side may share its expiry slot with other AP queues and still win
    through the AP's uniform pick; the STA side requires every other queue
    to survive strictly past its slot.
    """
    per = np.asarray(per, dtype=float)
    total = 0.0
    for k in range(kernels.t_max + 1):
        if side == AP:
            weight = tiebreak_weight(kernels, others, k)
            row = kernels.ap[i, k, :k + 1]
        elif side == STA:
            weight = 1.0
            for j in PAIR_STATES:
                weight *= survival(kernels, j, k) ** others[j]
            row = kernels.sta[i, k, :k + 1]
        else:
            raise ParameterError(f"side must be 'ap' or 'sta', got {side!r}")
        if weight == 0.0:
            continue
        states = kernels.policy.num_states - 1 - np.arange(k + 1) // 2
        total += weight * float(np.sum(row * (1.0 - per[states])))
    return total


def transition_prob(counts, deltas, t_us, lambda_pps):
    """Probability that ``deltas = (a, b, c, d, e)`` pairs gain occupancy
    during a window of ``t_us``: a of the s1 and b of the s2 pairs become
    full, and c/d/e empty pairs turn AP-only/STA-only/full.  Each empty
    queue independently receives an arrival with 1 - exp(-lambda*t)."""
    a, b, c, d, e = deltas
    n0, k1, k2, _ = counts
    if a < 0 or b < 0 or c < 0 or d < 0 or e < 0:
        return 0.0
    if a > k1 or b > k2 or c + d + e > n0:
        return 0.0
    p = -math.expm1(-(lambda_pps * 1e-6) * t_us)
    rest = n0 - c - d - e
    coeff = (math.comb(k1, a) * math.comb(k2, b)
             * math.comb(n0, c) * math.comb(n0 - c, d) * math.comb(n0 - c - d, e))
    return (coeff
            * p ** (a + b + c + d + 2 * e)
            * (1.0 - p) ** (k1 - a + k2 - b + c + d + 2 * rest))


def transition_deltas(counts):
    """All (a, b, c, d, e) reachable from the census, with destination
    (k1, k2, k3)."""
    n0, k1, k2, k3 = counts
    out = []
    for a in range(k1 + 1):
        for b in range(k2 + 1):
            for c in range(n0 + 1):
                for d in range(n0 - c + 1):
                    for e in range(n0 - c - d + 1):
                        out.append(((a, b, c, d, e),
                                    (k1 - a + c, k2 - b + d, k3 + a + b + e)))
    return out


def pair_transition_probs(state, t_us, lambda_pps):
    """Occupancy transition law of a single pair over a window: queues only
    fill (a nonempty queue keeps its packet until it is served)."""
    p = -math.expm1(-(lambda_pps * 1e-6) * t_us)
    if state == 0:
        return {0: (1 - p) ** 2, 1: p * (1 - p), 2: (1 - p) * p, 3: p * p}
    if state in (1, 2):
        return {state: 1 - p, 3: p}
    return {3: 1.0}


def pair_state_probs(p_a, p_s):
    """(rho_0 .. rho_3): the chance that a pair is in state j when its AP
    queue is nonempty with probability p_a and its STA queue with p_s."""
    return ((1 - p_a) * (1 - p_s), p_a * (1 - p_s), (1 - p_a) * p_s, p_a * p_s)


def census_prior(p_a, p_s, n):
    """Probability of each census (k1, k2, k3) of n pairs when each pair is
    independently in state j with probability rho_j: a multinomial term."""
    rho = pair_state_probs(p_a, p_s)
    out = {}
    for k1 in range(n + 1):
        for k2 in range(n - k1 + 1):
            for k3 in range(n - k1 - k2 + 1):
                counts = (n - k1 - k2 - k3, k1, k2, k3)
                coeff = math.factorial(n) // math.prod(map(math.factorial, counts))
                out[(k1, k2, k3)] = coeff * math.prod(r ** c for r, c in zip(rho, counts))
    return out


def tagged_prior(p_a, p_s, n):
    """Probability of each tagged state (s_i; l1, l2, l3): the tagged pair
    in state i and the census (l1, l2, l3) of the other n - 1 pairs."""
    rho = pair_state_probs(p_a, p_s)
    others = census_prior(p_a, p_s, n - 1)
    return {(i,) + census: rho[i] * p
            for i in PAIR_STATES for census, p in others.items()}


def dense_solve(m, c):
    """x = c + m x by a dense LU solve of (I - m) x = c."""
    return np.linalg.solve(np.eye(len(m)) - m, c)


def dense_census(model):
    """Dense (m, rhs) of the census system Y = rhs + m Y over the censuses
    of ``model.space``, rebuilt from the model's arrival table on the cells
    that ``space.cells()`` streams (source term // (2n+1), destination to)
    and its closed-form idle row."""
    table, rhs = model._census_system()
    space = model.space
    m = np.zeros((len(space.counts),) * 2)
    for chunk in space.cells():
        m[chunk.term // (2 * space.n + 1), chunk.to] = chunk.coeff * table.ravel()[chunk.term]
    empty = space.lookup[0, 0, 0]
    m[empty] = 0.0
    if model.lambda_pps > 0.0:
        m[empty, space.lookup[1, 0, 0]] = m[empty, space.lookup[0, 1, 0]] = 0.5
    return m, rhs


def period_windows(model, census):
    """({window t_us: probability the period ends in a delivered success
    after t}, {t: probability it ends without a success after t}) for a
    census (k1, k2, k3) of all ``model.n`` pairs, from the model's per-census
    summaries ``succ`` and ``col``."""
    ci = model.space.lookup[census]
    succ, col = model.succ[ci], model.col[ci]
    delta, won, cont = model.timing.slot_us, {}, {}
    for k in range(model.kmax + 1):
        for s in range(model.num_states):
            t = k * delta + model.timing.per_state_tx_us[s]
            won[t] = won.get(t, 0.0) + succ[k, s] * (1.0 - model.per[s])
            cont[t] = cont.get(t, 0.0) + succ[k, s] * model.per[s]
        t = k * delta + model.timing.collision_us
        cont[t] = cont.get(t, 0.0) + col[k]
    return won, cont


def continuation_windows(model, census):
    """{window t_us: probability the period ends without a success after t}."""
    return period_windows(model, census)[1]


def scalar_row(census, n, t_us, lam, lookup):
    """Destination law over censuses of n pairs after a window of t_us;
    ``lookup[k1, k2, k3]`` is the index of a census."""
    row = np.zeros(math.comb(n + 3, 3))
    if n == 0:
        row[0] = 1.0
        return row
    counts = (n - sum(census),) + census
    for deltas, dest in transition_deltas(counts):
        row[lookup[dest]] += transition_prob(counts, deltas, t_us, lam)
    return row


def move_table_reference(space):
    """The moves behind ``CensusSpace.cells`` of ``space``, built one
    source at a time in sweep order, each source's distinct destinations
    found by its own ``np.unique``: the (source, destination) of each cell
    and, per level, (cell, coeff, source, ep, eq) per move, whose cells,
    terms and coefficient sums the vectorised build must reproduce; a move
    raises p to the ep levels it gains and 1 - p to the eq empty queues it
    leaves empty."""
    binom = np.array([[math.comb(r, k) for k in range(space.n + 1)]
                      for r in range(space.n + 1)], dtype=float)
    fills = [CensusSpace(m) for m in range(space.n + 1)]
    srcs, dsts, by_level = [], [], []
    for rows in (np.flatnonzero(space.level == lv) for lv in range(space.level.max() + 1)):
        cells = coeffs = sources = eps = eqs = ()
        first = 0
        for src in rows.tolist():
            k1, k2, k3 = space.censuses[src]
            n0 = space.n - k1 - k2 - k3
            fill = fills[n0]
            c, d, e = (x[None, :] for x in fill.counts[:, 1:].T)
            a, b = (x.reshape(-1, 1) for x in np.indices((k1 + 1, k2 + 1)))
            dest = space.lookup[k1 - a + c, k2 - b + d, k3 + a + b + e]
            ep = a + b + c + d + 2 * e
            eq = k1 - a + k2 - b + c + d + 2 * (n0 - c - d - e)
            dst, cell = np.unique(dest, return_inverse=True)
            srcs.append(np.full(len(dst), src))
            dsts.append(dst)
            cells += (first + cell.ravel(),)
            coeffs += ((binom[k1, a] * binom[k2, b] * fill.multinom).ravel(),)
            sources += (np.full(ep.size, src),)
            eps += (ep.ravel(),)
            eqs += (eq.ravel(),)
            first += len(dst)
        by_level.append(tuple(np.concatenate(x) for x in (cells, coeffs, sources, eps, eqs)))
    return np.concatenate(srcs), np.concatenate(dsts), by_level


def powers(n, p):
    """The dense table [t, e * (2n+1) + f] = p_t^e (1 - p_t)^f for e, f =
    0..2n: every exponent pair a move between censuses of n pairs can take,
    whose gathers ``CensusSpace.arrival_table`` must reproduce."""
    e = np.arange(2 * n + 1)
    pw, qw = p[:, None] ** e, (1.0 - p)[:, None] ** e
    return (pw[:, :, None] * qw[:, None, :]).reshape(len(p), -1)


def census_wins(model, census):
    """[AP, STA]: the chance that a period from the census (k1, k2, k3) of
    all ``model.n`` pairs ends in a delivered win of some AP / some STA
    queue, the tagged minislot win ``p_hat_minislot`` times the pairs of
    each occupied class."""
    counts = (model.n - sum(census),) + census
    return [sum(counts[i] * p_hat_minislot(side, i, _others_of(counts, i),
                                           model.kernels, model.per)
                for i in PAIR_STATES if counts[i])
            for side in (AP, STA)]


def renewal_system(model):
    """Dense (m, c) of x = c + m x over the censuses of all ``model.n``
    pairs, whose three columns are P(an AP queue wins the cycle | census),
    P(a STA queue wins it | census) and E[R | census].  A row of m sums the
    scalar destination laws of the windows after which the period ends
    without a success.  c holds the chance that this period ends in a
    delivered win of some AP / some STA queue (``census_wins``) and the
    mean period length.  The idle census waits 1/(2 N lambda) for the first
    arrival, which makes one pair AP-only or STA-only; with no arrivals its
    row stays empty (the model sets its E[R] to inf)."""
    space, lam = model.space, model.lambda_pps
    nc = len(space.censuses)
    m, c = np.zeros((nc, nc)), np.zeros((nc, 3))
    for ci, census in enumerate(space.censuses):
        if census == (0, 0, 0):
            if lam > 0.0:
                c[ci, 2] = 1.0 / (2 * model.n * lam * 1e-6)
                m[ci, space.lookup[1, 0, 0]] = m[ci, space.lookup[0, 1, 0]] = 0.5
            continue
        c[ci, :2] = census_wins(model, census)
        won, cont = period_windows(model, census)
        c[ci, 2] = sum(t * w for t, w in won.items()) + sum(t * w for t, w in cont.items())
        for t, w in cont.items():
            m[ci] += w * scalar_row(census, model.n, t, lam, space.lookup)
    return m, c


def capacity_search(config, policy, pi, timing, lambda_grid):
    """Largest grid rate with a convergent fixed point, plus all solutions."""
    grid = list(lambda_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("lambda grid must be strictly ascending")
    solutions = fixed_points(grid, config, policy, pi, timing)
    capacity = max((s.lambda_pps for s in solutions if s.converged), default=None)
    return capacity, solutions


def bianchi_saturation(n, w, m, t_s_us, t_c_us, slot_us):
    """Saturation throughput (packets/s) of n 802.11 DCF stations with
    minimum window w, m doubling stages and no retry limit, and the share of
    busy periods that are collisions, from G. Bianchi, "Performance analysis
    of the IEEE 802.11 distributed coordination function", IEEE JSAC 18(3),
    2000.  The conditional collision probability p solves
    p = 1 - (1 - tau(p))^(n-1) with tau(p) = 2 / (1 + w + p w sum_{i<m} (2p)^i),
    the form of the paper's tau without its 0/0 at p = 1/2.  The left side
    minus the right rises in p, so bisection finds the root."""
    def tau(p):
        return 2.0 / (1.0 + w + p * w * sum((2.0 * p) ** i for i in range(m)))

    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid < 1.0 - (1.0 - tau(mid)) ** (n - 1):
            lo = mid
        else:
            hi = mid
    t = tau(0.5 * (lo + hi))
    p_tr = 1.0 - (1.0 - t) ** n  # some station transmits in a slot
    p_s = n * t * (1.0 - t) ** (n - 1) / p_tr  # exactly one does
    slot = (1.0 - p_tr) * slot_us + p_tr * (p_s * t_s_us + (1.0 - p_s) * t_c_us)
    return p_tr * p_s / slot * 1e6, 1.0 - p_s
