"""The census system of ``CycleModel`` (census transition operator,
right-hand side, level sweep) and the win probabilities and E[R | census]
read off it, against the exact references in ``oracles``."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppmac import ConsistencyError, CycleModel, TimerPolicy, build_kernels
from oppmac import analysis
from oppmac.analysis import MovePattern, block_sweep, census_space

from oracles import (
    census_wins,
    continuation_windows,
    dense_census,
    dense_solve,
    move_table_reference,
    period_windows,
    powers,
    renewal_system,
)

PI = (0.1, 0.2, 0.3, 0.4)
PER = (0.1, 0.25, 0.0, 0.4)  # a zero-PER state has no errored-success windows


def make_model(n, lam, timing):
    kt = build_kernels(TimerPolicy(), np.asarray(PI), lam)
    return CycleModel(kt, timing, PER, n), kt


def solved(model):
    """The model's (win AP, win STA, E[R]) per census, as one array."""
    return np.column_stack([model.win_by_census, model.renewal_by_census])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 35.0, 400.0])
def test_renewal_rows_match_scalar_reference(n, lam, timing):
    """The win probabilities and E[R | census] against a dense solve of the
    scalar census system; with no arrivals the empty census never ends: no
    side wins and its E[R] is infinite."""
    model, _ = make_model(n, lam, timing)
    m, c = renewal_system(model)
    empty = model.space.lookup[0, 0, 0]
    keep = np.ones(len(model.space.censuses), bool)
    keep[empty] = lam > 0.0
    got = solved(model)
    np.testing.assert_allclose(got[keep], dense_solve(m[np.ix_(keep, keep)], c[keep]),
                               rtol=1e-12, atol=0)
    if lam == 0.0:
        assert got[empty].tolist() == [0.0, 0.0, np.inf]
    else:
        assert np.isfinite(got).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 35.0, 400.0])
def test_tagged_rows_match_scalar_reference(n, lam, timing):
    """Every row of the census system, the idle row included, is the scalar
    row that sums the windows' destination laws, to 1e-14."""
    model, _ = make_model(n, lam, timing)
    m = dense_census(model)[0]
    want = renewal_system(model)[0]
    assert np.abs(m - want).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("lam", [0.0, 60.0])
def test_tagged_rhs_matches_p_hat_minislot(n, lam, timing):
    """The win columns of the rhs are the tagged minislot wins summed over
    the pairs of each occupied class; the idle row has none."""
    model, _ = make_model(n, lam, timing)
    rhs = dense_census(model)[1]
    for ci, census in enumerate(model.space.censuses):
        got = rhs[ci, :2]
        if census == (0, 0, 0):
            assert (got == 0.0).all()
            continue
        np.testing.assert_allclose(got, census_wins(model, census), rtol=1e-14, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("lam", [0.0, 60.0])
def test_tagged_period_column_is_mean_period_length(n, lam, timing):
    """The third right-hand side is sum t * w over every window of the
    period, delivered successes and continuations alike; the idle row waits
    1/(2 N lambda) for the first arrival."""
    model, _ = make_model(n, lam, timing)
    rhs = dense_census(model)[1]
    for ci, census in enumerate(model.space.censuses):
        if census == (0, 0, 0):
            want = 1.0 / (2 * n * lam * 1e-6) if lam > 0.0 else 0.0
        else:
            want = sum(t * w for windows in period_windows(model, census)
                       for t, w in windows.items())
        assert rhs[ci, 2] == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [2, 7])
@pytest.mark.parametrize("lam", [0.0, 35.0, 400.0])
def test_row_mass_is_continuation_probability(n, lam, timing):
    model, _ = make_model(n, lam, timing)
    m = dense_census(model)[0]
    for ci, census in enumerate(model.space.censuses):
        if census != (0, 0, 0):
            cont = sum(continuation_windows(model, census).values())
            assert abs(m[ci].sum() - cont) <= 1e-14


@pytest.mark.parametrize("n", [*range(9), 12])
def test_move_table_matches_per_source_reference(n):
    """The cells built one numpy pass per level match the per-source
    loop's moves: the same cells, as int32; every move leaves
    empty the 2n - level(source) - ep queues it does not fill, so its cell's
    term source * (2n+1) + ep fixes both exponents; and per level each
    cell's coefficient sum is bitwise the bincount of the moves'
    coefficients in move order."""
    space = analysis.CensusSpace(n)
    pattern = space.pattern
    term, coeff = pattern.term, pattern.coeff
    ref_src, ref_dst, ref_by_level = move_table_reference(space)
    assert np.array_equal(term // (2 * n + 1), ref_src)
    assert np.array_equal(pattern.to, ref_dst)
    for arr in (pattern.to, term):
        assert arr.dtype == np.int32
    assert len(term) == len(coeff) == len(pattern.to)
    assert len(pattern.levels) == len(ref_by_level)
    for (_, cells, _, _), (ref_cell, ref_coeff, src, ep, eq) in zip(pattern.levels,
                                                                     ref_by_level):
        assert np.array_equal(ep + eq, 2 * n - space.level[src])
        assert np.array_equal(term[cells][ref_cell], src * (2 * n + 1) + ep)
        want = np.bincount(ref_cell, ref_coeff, minlength=cells.stop - cells.start)
        assert coeff.dtype == want.dtype and coeff[cells].tobytes() == want.tobytes()


def test_chunked_build_matches_one_pass(monkeypatch):
    """Chunks of a few moves, which split levels, give the pattern, terms
    and coefficients of one pass per level."""
    pw = analysis.CensusSpace(8).pattern
    monkeypatch.setattr(analysis, "_CHUNK_MOVES", 50)
    pc = analysis.CensusSpace(8).pattern
    for a, b in zip([pw.to, pw.term, pw.coeff], [pc.to, pc.term, pc.coeff]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for lw, lc in zip(pw.levels, pc.levels):
        assert lw[:2] == lc[:2] and all(np.array_equal(x, y) for x, y in zip(lw[2:], lc[2:]))


def test_cached_space_keeps_three_arrays_per_cell():
    """Past its build, a space keeps per cell only the destination census
    and the table entry, both int32, and the coefficient sum: 16 bytes."""
    space = analysis.CensusSpace(6)
    pattern = space.pattern
    per_cell = {name: arr.dtype for obj in (space, pattern) for name, arr in vars(obj).items()
                if isinstance(arr, np.ndarray) and len(arr) == len(pattern.term)}
    assert per_cell == {"to": np.int32, "term": np.int32, "coeff": np.float64}


def test_cell_counts_match_the_built_cells():
    """The closed-form count of each census's cells, which sizes the cell
    build, is the number of cells the build finds per source."""
    for n in (1, 2, 5, 9, 13):
        space = analysis.CensusSpace(n)
        built = np.bincount(space.pattern.term // (2 * n + 1), minlength=len(space.counts))
        assert np.array_equal(space._cell_counts(), built)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10])
@pytest.mark.parametrize("lam", [0.0, 35.0, 400.0])
def test_arrival_table_matches_dense_powers(n, lam, timing):
    """The per-level arrival table at the model's window probabilities is
    the dense (2n+1)^2 table of every exponent pair, weighted by the same
    window weights and gathered at (source, gain, 2n - level - gain), to
    1e-14 relative, and zero past the source's empty queues."""
    model, _ = make_model(n, lam, timing)
    space = model.space
    weights = np.random.default_rng(n).random((len(space.counts), model._p.size))
    table = space.arrival_table(weights, model._p)
    ne = 2 * n + 1
    dense = (weights @ powers(n, model._p)).reshape(-1, ne, ne)
    src, gain = np.nonzero(np.arange(ne) <= 2 * n - space.level[:, None])
    want = dense[src, gain, 2 * n - space.level[src] - gain]
    np.testing.assert_allclose(table[src, gain], want, rtol=1e-14, atol=0)
    assert (table[np.arange(ne) > 2 * n - space.level[:, None]] == 0.0).all()


def test_cell_coefficients_sum_to_binomials():
    """Per census and level gain g, the coefficient sums of its cells are
    C(empty queues, g), so each transition row sums to 1; checked one level
    at a time, as the build checks its chunks, a single coefficient off by
    1e-10 relative is refused, naming its census."""
    space = analysis.CensusSpace(5)
    p, ne = space.pattern, 2 * space.n + 1
    off = len(p.term) // 2
    bad = p.coeff.copy()
    bad[off] *= 1.0 + 1e-10
    k1, k2, k3 = space.censuses[p.term[off] // ne]
    for rows, cells, _, _ in p.levels:  # a level's sources at their positions in it
        source, gain = np.divmod(p.term[cells], ne)
        at = (source - rows.start) * ne + gain
        space._check_arrival_sums(rows, at, p.coeff[cells])
        if cells.start <= off < cells.stop:
            with pytest.raises(ConsistencyError, match=rf"census \({k1}, {k2}, {k3}\) that "
                                                       rf"gain \d+ levels sum to"):
                space._check_arrival_sums(rows, at, bad[cells])


def test_move_table_only_for_all_n_pairs(timing):
    """Only the census space of all n pairs tabulates its cells; the space
    of n - 1 pairs serves the contention summaries alone."""
    census_space.cache_clear()
    make_model(5, 40.0, timing)
    assert "pattern" in vars(census_space(5))
    assert "pattern" not in vars(census_space(4))


def test_census_cache_keeps_two_spaces(timing):
    """A model needs the spaces of n and n - 1 pairs only: the cache holds no
    more, and a second model at the same n builds no space again."""
    census_space.cache_clear()
    try:
        for n, lam in ((5, 30.0), (5, 60.0), (7, 30.0)):
            misses = census_space.cache_info().misses
            make_model(n, lam, timing)
            info = census_space.cache_info()
            assert info.currsize <= 2
            if lam == 60.0:
                assert info.misses == misses
    finally:
        census_space.cache_clear()
    assert census_space.cache_info().maxsize == 2


def test_model_build_memory_peak(timing):
    """The census system is kept as three arrays per cell of the move
    pattern, never as the dense M: an N = 15 model, its cells included,
    peaks at 6.94 MB of traced allocations (9.18 MB with the per-cell
    source, destination and values kept); the bound leaves about 10%."""
    kt = build_kernels(TimerPolicy(), np.asarray(PI), 50.0)
    census_space.cache_clear()
    tracemalloc.start()
    try:
        CycleModel(kt, timing, PER, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        census_space.cache_clear()
    assert peak < 7.6 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_model_build_memory_peak_on_cached_cells(timing):
    """Past its cells, an N = 15 model allocates its contention summaries,
    the per-level arrival table, whose columns are the level gains rather
    than every exponent pair, and one level's entries of M at a time.
    Measured at 1.62 MB of traced allocations (4.46 MB with one value per
    cell, 10.25 MB with the dense table of every exponent pair); the bound
    leaves about 10%."""
    kt = build_kernels(TimerPolicy(), np.asarray(PI), 50.0)
    census_space.cache_clear()
    census_space(15).pattern
    tracemalloc.start()
    try:
        CycleModel(kt, timing, PER, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        census_space.cache_clear()
    assert peak < 1.8 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_renewal_identity_check_catches_a_wrong_operator(timing, monkeypatch):
    """An operator that loses continuation mass lets a cycle end without a
    winner: the win probabilities of a census then sum to less than 1, and
    the model refuses them."""
    exact = analysis.CensusSpace.arrival_table

    def lossy(self, weights, p):
        return 0.5 * exact(self, weights, p)

    monkeypatch.setattr(analysis.CensusSpace, "arrival_table", lossy)
    with pytest.raises(ConsistencyError,
                       match=r"win probabilities of census \(0, 0, 0\) sum to 0\.\d+, not 1"):
        make_model(2, 400.0, timing)


# ------------------------------------------------------------- level sweep

@pytest.mark.parametrize("n", [2, 4, 7, 10])
@pytest.mark.parametrize("lam", [0.0, 40.0, 80.0])
def test_every_move_raises_the_level(n, lam, timing):
    """Periods in M end without a success, so no queue empties: every
    off-diagonal nonzero of the census system moves to a strictly higher
    level, the nonempty-queue count of the census tuple."""
    model, _ = make_model(n, lam, timing)
    m = dense_census(model)[0]
    level = model.space.level
    assert level.tolist() == [k1 + k2 + 2 * k3 for k1, k2, k3 in model.space.censuses]
    src, dst = np.nonzero(m)
    off = src != dst
    assert (level[dst[off]] > level[src[off]]).all()


@pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
@pytest.mark.parametrize("lam", [0.0, 35.0, 400.0])
def test_sweep_matches_dense_solve(n, lam, timing):
    model, _ = make_model(n, lam, timing)
    want = dense_solve(*dense_census(model))
    got = solved(model)
    if lam == 0.0:  # no arrivals: the empty census never ends
        empty = model.space.lookup[0, 0, 0]
        assert got[empty, 2] == np.inf
        got[empty, 2] = want[empty, 2]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def hand_system(cells, level):
    """(pattern, table) of a system on a hand-built pattern: ``cells`` maps
    each (source, destination) cell to its entry, the censuses numbered by
    ``level``.  The cells are grouped by source, each cell's term is its
    position and its coefficient is 1, so the table is the entries as one
    column."""
    grouped = sorted(cells.items())
    src, dst = np.array([cell for cell, _ in grouped], dtype=np.int32).reshape(-1, 2).T
    pattern = MovePattern(np.array(level), np.bincount(src, minlength=len(level)), dst,
                          np.arange(len(grouped), dtype=np.int32), np.ones(len(grouped)))
    return pattern, np.array([[value] for _, value in grouped])


def test_sweep_solves_hand_example():
    # m = [[0.5, 0.25, 0], [0, 0, 0.5], [0, 0, 0.75]]
    pattern, table = hand_system({(0, 0): 0.5, (0, 1): 0.25, (1, 1): 0.0, (1, 2): 0.5,
                                  (2, 2): 0.75}, [0, 1, 2])
    c = np.array([1.0, 2.0, 3.0])
    x = block_sweep(pattern, table, c[:, None])[:, 0]
    # x2 = 3 / (1 - 0.75), x1 = 2 + 0.5 x2, x0 = (1 + 0.25 x1) / (1 - 0.5)
    np.testing.assert_allclose(x, [6.0, 8.0, 12.0], rtol=1e-15)
    np.testing.assert_allclose(block_sweep(pattern, table, np.stack([c, 2 * c], 1)),
                               np.stack([x, 2 * x], 1), rtol=1e-15)


@pytest.mark.parametrize("move,level", [((0, 1), [0, 0, 1]), ((1, 0), [0, 1, 2])],
                         ids=["inside-level-0", "down-from-level-1"])
def test_sweep_rejects_moves_that_do_not_raise_the_level(move, level):
    # m = [[0.1, 0, 0], [0, 0.3, 0.4], [0, 0, 0.5]] plus 0.2 at ``move``
    cells = {(0, 0): 0.1, (1, 1): 0.3, (1, 2): 0.4, (2, 2): 0.5, move: 0.2}
    with pytest.raises(ConsistencyError, match=f"census {move[0]} has a move that does not"):
        hand_system(cells, level)


def test_pattern_refuses_censuses_not_numbered_by_level():
    """The census index is the sweep index: a pattern whose censuses do
    not ascend in level is refused before any cell is read."""
    cells = {(0, 0): 0.1, (0, 2): 0.2, (1, 1): 0.3, (1, 0): 0.4, (2, 2): 0.5}
    with pytest.raises(ValueError, match="numbered by ascending level"):
        hand_system(cells, [1, 0, 2])


@pytest.mark.parametrize("diag", [1.0, 1.5, np.nan])
def test_sweep_rejects_diagonal_not_below_one(diag):
    # m = [[0.1, 0.2], [0, diag]]
    pattern, table = hand_system({(0, 0): 0.1, (0, 1): 0.2, (1, 1): diag}, [0, 1])
    with pytest.raises(ConsistencyError, match="diagonal entry at level 1 is not"):
        block_sweep(pattern, table, np.ones((2, 1)))


@st.composite
def upward_systems(draw):
    """(cells, level, rhs): random levels, ascending as the census numbers
    do, a diagonal entry below 1 per census and random cells that go
    strictly up a level, each row's entries summing to at most 1.  The rhs
    is positive, so every solved value is at least its rhs and a relative
    tolerance holds for each of them."""
    nc = draw(st.integers(1, 7))
    level = sorted(draw(st.lists(st.integers(0, 4), min_size=nc, max_size=nc)))
    cells = {}
    for o in range(nc):
        diag = draw(st.floats(0.0, 0.9))
        cells[(o, o)] = diag
        ups = [d for d in range(nc) if level[d] > level[o]]
        dests = draw(st.lists(st.sampled_from(ups), unique=True)) if ups else []
        weights = [draw(st.floats(0.0, 1.0)) for _ in dests]
        scale = (1.0 - diag) / max(1.0, sum(weights))
        cells.update({(o, d): w * scale for d, w in zip(dests, weights)})
    rhs = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=2 * nc, max_size=2 * nc)))
    return cells, level, rhs.reshape(nc, 2)


@settings(max_examples=150, deadline=None)
@given(upward_systems(), st.data())
def test_sweep_matches_dense_solve_on_random_patterns(system, data):
    """Through ``MovePattern`` and ``block_sweep``, random upward cells with
    one diagonal per census solve as the dense system does; one downward
    cell raises ``ConsistencyError``, one missing diagonal ``ValueError``."""
    cells, level, rhs = system
    nc = len(level)
    m = np.zeros((nc, nc))
    for (o, d), value in cells.items():
        m[o, d] = value
    np.testing.assert_allclose(block_sweep(*hand_system(cells, level), rhs),
                               dense_solve(m, rhs), rtol=1e-12, atol=0)
    if nc > 1:
        o = data.draw(st.sampled_from(range(nc)))
        d = data.draw(st.sampled_from([d for d in range(nc) if d != o]))
        if level[d] > level[o]:
            o, d = d, o  # now level[d] <= level[o]: o -> d does not go up
        with pytest.raises(ConsistencyError, match=f"census {o} has a move that does not"):
            hand_system({**cells, (o, d): 0.5}, level)
    lost = data.draw(st.sampled_from(range(nc)))
    with pytest.raises(ValueError, match="every census needs its diagonal cell"):
        hand_system({cell: v for cell, v in cells.items() if cell != (lost, lost)}, level)
