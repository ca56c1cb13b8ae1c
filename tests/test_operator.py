"""The census system of ``CycleModel`` (census transition operator,
right-hand side, level sweep) and the win probabilities and E[R | census]
read off it, against the exact references in ``oracles``."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppmac import ConsistencyError, SystemConfig, TimerPolicy, build_kernels, cycle_models
from oppmac import analysis, fixed_points
from oppmac.analysis import CellChunk, block_sweep, cell_total

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
    return cycle_models([kt], timing, PER, n)[0], kt


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


def stream(space):
    """The chunks of ``space.cells()`` in census order, and the slice of
    the concatenated cells that each level's chunks cover."""
    chunks = list(space.cells())[::-1]
    ends = np.cumsum([len(chunk.to) for chunk in chunks])
    levels = {}
    for chunk, end in zip(chunks, ends):
        start = levels.get(chunk.level, slice(end - len(chunk.to), end)).start
        levels[chunk.level] = slice(start, end)
    return chunks, [levels[lv] for lv in sorted(levels)]


def joined(chunks, field):
    return np.concatenate([getattr(chunk, field) for chunk in chunks])


@pytest.mark.parametrize("n", [*range(9), 12])
def test_move_table_matches_per_source_reference(n):
    """The cells built one numpy pass per level match the per-source
    loop's moves: the same cells, as int32; every move leaves
    empty the 2n - level(source) - ep queues it does not fill, so its cell's
    term source * (2n+1) + ep fixes both exponents; and per level each
    cell's coefficient sum is bitwise the bincount of the moves'
    coefficients in move order."""
    space = analysis.CensusSpace(n)
    chunks, levels = stream(space)
    to, term, coeff = (joined(chunks, field) for field in ("to", "term", "coeff"))
    ref_src, ref_dst, ref_by_level = move_table_reference(space)
    assert np.array_equal(term // (2 * n + 1), ref_src)
    assert np.array_equal(to, ref_dst)
    for chunk in chunks:
        assert chunk.to.dtype == chunk.term.dtype == np.int32
    assert len(levels) == len(ref_by_level)
    for cells, (ref_cell, ref_coeff, src, ep, eq) in zip(levels, ref_by_level):
        assert np.array_equal(ep + eq, 2 * n - space.level[src])
        assert np.array_equal(term[cells][ref_cell], src * (2 * n + 1) + ep)
        want = np.bincount(ref_cell, ref_coeff, minlength=cells.stop - cells.start)
        assert coeff.dtype == want.dtype and coeff[cells].tobytes() == want.tobytes()


def test_chunked_build_matches_one_pass(monkeypatch):
    """Chunks of a few moves, which split levels, give the cells, terms,
    coefficients and first cells of one pass per level, each chunk inside
    one level and the chunks from the top level down."""
    whole = stream(analysis.CensusSpace(8))[0]
    monkeypatch.setattr(analysis, "_CHUNK_MOVES", 50)
    split = list(analysis.CensusSpace(8).cells())
    assert len(split) > len(whole)
    assert [chunk.rows.start for chunk in split] == sorted(
        (chunk.rows.start for chunk in split), reverse=True)
    split = split[::-1]
    for field in ("to", "term", "coeff"):
        a, b = joined(whole, field), joined(split, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def firsts(chunks):  # each census's first cell in the concatenated cells
        ends = np.cumsum([0] + [len(chunk.to) for chunk in chunks])
        return np.concatenate([chunk.first + end for chunk, end in zip(chunks, ends)])

    assert np.array_equal(firsts(whole), firsts(split))
    level = analysis.CensusSpace(8).level
    for chunk in split:
        assert (level[chunk.rows] == chunk.level).all()


def test_cell_chunks_keep_three_arrays_per_cell():
    """A chunk holds per cell only the destination census and the table
    entry, both int32, and the coefficient sum: 16 bytes; its only other
    array is per census."""
    for chunk in analysis.CensusSpace(6).cells():
        arrays = {name: arr for name, arr in chunk._asdict().items()
                  if isinstance(arr, np.ndarray)}
        assert len(arrays.pop("first")) == chunk.rows.stop - chunk.rows.start
        assert {name: arr.dtype for name, arr in arrays.items()} == {
            "to": np.int32, "term": np.int32, "coeff": np.float64}
        assert len(chunk.to) == len(chunk.term) == len(chunk.coeff)


def test_cell_counts_match_the_built_cells():
    """The closed-form count of each census's cells, which checks each
    chunk of the cell build, is the number of cells the build finds per
    source."""
    for n in (1, 2, 5, 9, 13):
        space = analysis.CensusSpace(n)
        term = joined(stream(space)[0], "term")
        built = np.bincount(term // (2 * n + 1), minlength=len(space.counts))
        assert np.array_equal(space._cell_counts(), built)


def test_cell_total_is_the_summed_cell_counts():
    """The degree-6 polynomial of the total cell count, which bounds the
    analysis before any census is enumerated, sums the per-census closed
    form at N = 0..30."""
    for n in range(31):
        assert cell_total(n) == analysis.CensusSpace(n)._cell_counts().sum()
    assert (cell_total(40), cell_total(60)) == (32_715_991, 331_030_896)
    assert analysis.MAX_CELLS == cell_total(60)


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
    C(empty queues, g), so each transition row sums to 1; checked one chunk
    at a time, as the build checks them, a single coefficient off by 1e-10
    relative is refused, naming its census."""
    space = analysis.CensusSpace(5)
    ne = 2 * space.n + 1
    chunks = list(space.cells())
    for i, chunk in enumerate(chunks):  # a chunk's sources at their positions in it
        source, gain = np.divmod(chunk.term, ne)
        at = (source - chunk.rows.start) * ne + gain
        space._check_arrival_sums(chunk.rows, at, chunk.coeff)
        if i == len(chunks) // 2:
            off = len(chunk.term) // 2
            bad = chunk.coeff.copy()
            bad[off] *= 1.0 + 1e-10
            k1, k2, k3 = space.censuses[source[off]]
            with pytest.raises(ConsistencyError, match=rf"census \({k1}, {k2}, {k3}\) that "
                                                       rf"gain \d+ levels sum to"):
                space._check_arrival_sums(chunk.rows, at, bad)


def test_move_table_only_for_all_n_pairs(timing, monkeypatch):
    """A three-rate ``fixed_points`` builds the cells once, those of the
    space of all n pairs; the space of n - 1 pairs serves the contention
    summaries alone."""
    built = []
    real = analysis.CensusSpace.cells

    def cells(self):
        built.append(self.n)
        return real(self)

    monkeypatch.setattr(analysis.CensusSpace, "cells", cells)
    cfg = SystemConfig(n_stations=5, pi=PI, per_state_per=PER)
    sols = fixed_points([20.0, 50.0, 80.0], cfg, TimerPolicy(), np.asarray(PI), timing)
    assert [s.lambda_pps for s in sols] == [20.0, 50.0, 80.0]
    assert built == [5]


def test_rates_swept_together_match_each_alone(timing):
    """The models of a grid, swept in one pass over the cells, hold bitwise
    the vectors that each rate's model holds when swept alone."""
    kernels = [build_kernels(TimerPolicy(), np.asarray(PI), lam) for lam in (0.0, 35.0, 400.0)]
    for kt, model in zip(kernels, cycle_models(kernels, timing, PER, 7)):
        alone = cycle_models([kt], timing, PER, 7)[0]
        assert solved(model).tobytes() == solved(alone).tobytes()


def test_model_build_memory_peak(timing):
    """The census system is never stored: an N = 15 model streams its cells
    a chunk at a time into the level sweep, next to its contention
    summaries and its per-level arrival table.  The whole build peaks at
    5.19 MB of traced allocations when it is the first in its process, and
    at 4.25 MB after (6.93 MB with every cell kept for later rates); the
    bound leaves about 10%."""
    kt = build_kernels(TimerPolicy(), np.asarray(PI), 50.0)
    tracemalloc.start()
    try:
        cycle_models([kt], timing, PER, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.7 * 2**20, f"peak {peak / 2**20:.2f} MB"


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
    """(chunks, tables) of a system on hand-built cells: ``cells`` maps
    each (source, destination) cell to its entry, and ``level`` labels the
    censuses.  Each run of censuses of one level is a chunk, from the last
    census down.  The cells are grouped by source, each cell's term is its
    position and its coefficient is 1, so the one rate's table is the
    entries as one column."""
    grouped = sorted(cells.items())
    src, dst = np.array([cell for cell, _ in grouped], dtype=np.int32).reshape(-1, 2).T
    first = np.searchsorted(src, np.arange(len(level) + 1))  # each census's first cell
    cuts = [o for o in range(1, len(level)) if level[o] != level[o - 1]]
    chunks = [CellChunk(level[lo], slice(lo, hi), dst[first[lo]:first[hi]],
                        np.arange(first[lo], first[hi], dtype=np.int32),
                        np.ones(first[hi] - first[lo]), first[lo:hi] - first[lo])
              for lo, hi in zip([0, *cuts], [*cuts, len(level)])]
    return chunks[::-1], np.array([[[value] for _, value in grouped]])


def sweep(system, rhs):
    """``block_sweep`` of a ``hand_system`` at its one rate."""
    chunks, tables = system
    return block_sweep(chunks, tables, rhs[None])[0]


def test_sweep_solves_hand_example():
    # m = [[0.5, 0.25, 0], [0, 0, 0.5], [0, 0, 0.75]]
    system = hand_system({(0, 0): 0.5, (0, 1): 0.25, (1, 1): 0.0, (1, 2): 0.5,
                          (2, 2): 0.75}, [0, 1, 2])
    c = np.array([1.0, 2.0, 3.0])
    x = sweep(system, c[:, None])[:, 0]
    # x2 = 3 / (1 - 0.75), x1 = 2 + 0.5 x2, x0 = (1 + 0.25 x1) / (1 - 0.5)
    np.testing.assert_allclose(x, [6.0, 8.0, 12.0], rtol=1e-15)
    np.testing.assert_allclose(sweep(system, np.stack([c, 2 * c], 1)),
                               np.stack([x, 2 * x], 1), rtol=1e-15)
    # two rates at once, the second with every entry halved
    chunks, tables = system
    both = block_sweep(chunks, np.concatenate([tables, tables / 2]), np.stack([c, c])[:, :, None])
    np.testing.assert_allclose(both[0, :, 0], x, rtol=1e-15)
    np.testing.assert_allclose(both[1, :, 0], sweep((chunks, tables / 2), c[:, None])[:, 0],
                               rtol=0)


@pytest.mark.parametrize("move,level", [((0, 1), [0, 0, 1]), ((1, 0), [0, 1, 2])],
                         ids=["inside-level-0", "down-from-level-1"])
def test_sweep_rejects_moves_that_do_not_raise_the_level(move, level):
    # m = [[0.1, 0, 0], [0, 0.3, 0.4], [0, 0, 0.5]] plus 0.2 at ``move``
    cells = {(0, 0): 0.1, (1, 1): 0.3, (1, 2): 0.4, (2, 2): 0.5, move: 0.2}
    with pytest.raises(ConsistencyError, match=f"census {move[0]} has a move that does not"):
        sweep(hand_system(cells, level), np.ones((3, 1)))


def test_sweep_refuses_chunks_out_of_level_order():
    """The census index is the sweep index: chunks whose levels rise on the
    way down, or that leave a census out, are refused before they are
    solved."""
    cells = {(0, 0): 0.1, (0, 2): 0.2, (1, 1): 0.3, (1, 2): 0.4, (2, 2): 0.5}
    with pytest.raises(ValueError, match="from the last down, a level at a time"):
        sweep(hand_system(cells, [1, 0, 2]), np.ones((3, 1)))
    chunks, tables = hand_system({(0, 0): 0.1, (1, 1): 0.3, (2, 2): 0.5}, [0, 1, 2])
    for gap in (chunks[1:], chunks[:1] + chunks[2:], chunks[:-1]):
        with pytest.raises(ValueError, match="from the last down, a level at a time"):
            block_sweep(gap, tables, np.ones((1, 3, 1)))


@pytest.mark.parametrize("diag", [1.0, 1.5, np.nan])
def test_sweep_rejects_diagonal_not_below_one(diag):
    # m = [[0.1, 0.2], [0, diag]]
    system = hand_system({(0, 0): 0.1, (0, 1): 0.2, (1, 1): diag}, [0, 1])
    with pytest.raises(ConsistencyError, match="diagonal entry at level 1 is not"):
        sweep(system, np.ones((2, 1)))


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
    """Through ``block_sweep``, random upward cells with one diagonal per
    census solve as the dense system does; one downward cell raises
    ``ConsistencyError``, one missing diagonal ``ValueError``."""
    cells, level, rhs = system
    nc = len(level)
    m = np.zeros((nc, nc))
    for (o, d), value in cells.items():
        m[o, d] = value
    np.testing.assert_allclose(sweep(hand_system(cells, level), rhs),
                               dense_solve(m, rhs), rtol=1e-12, atol=0)
    if nc > 1:
        o = data.draw(st.sampled_from(range(nc)))
        d = data.draw(st.sampled_from([d for d in range(nc) if d != o]))
        if level[d] > level[o]:
            o, d = d, o  # now level[d] <= level[o]: o -> d does not go up
        with pytest.raises(ConsistencyError, match=f"census {o} has a move that does not"):
            sweep(hand_system({**cells, (o, d): 0.5}, level), rhs)
    lost = data.draw(st.sampled_from(range(nc)))
    with pytest.raises(ValueError, match="every census needs its diagonal cell"):
        sweep(hand_system({cell: v for cell, v in cells.items() if cell != (lost, lost)},
                          level), rhs)
