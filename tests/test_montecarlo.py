"""``win_counts`` against the dense resolver it replaced.

``dense_win_counts`` orders the top bidders of every object in one pass,
in (base, eps) order; the library orders only the objects whose top amount
is shared, and sees a (base, eps) stack as the exact ranks of its pairs,
as position mode places them.  Both draw one tie variate per shared object,
in flat row-major order, so they must agree on every count and leave the
generator in the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import samplers
from auctionlab.montecarlo import chunk_rows, play, win_counts
from auctionlab.samplers import by_columns

EPS_FLOOR = np.iinfo(np.int64).min


def dense_win_counts(base, eps, gen):
    """Order every object's top bidders and award it to rank
    floor(u * ties), u drawn for the shared objects only, one each in flat
    row-major order, and 0 for the others."""
    top = base.max(axis=0)
    at_top = base == top
    if eps is not None:
        masked = np.where(at_top, eps, EPS_FLOOR)
        at_top = masked == masked.max(axis=0)
    ties = at_top.sum(axis=0)
    u = np.zeros(top.shape)
    u[ties > 1] = gen.random(np.count_nonzero(ties > 1))
    pick = (u * ties).astype(np.int64)
    order = np.cumsum(at_top, axis=0) - 1
    winner = at_top & (order == pick)
    return winner.sum(axis=2).astype(np.int64)


def lexicographic_ranks(base, eps):
    """The rank of each (base, eps) pair of a stack among its distinct
    pairs, in lexicographic order: equal pairs share a rank."""
    flat_base, flat_eps = base.ravel(), eps.ravel()
    order = np.lexsort((flat_eps, flat_base))
    new = np.ones(base.size, dtype=bool)
    new[1:] = (np.diff(flat_base[order]) != 0) | (np.diff(flat_eps[order]) != 0)
    ranks = np.empty(base.shape)
    ranks.flat[order] = np.cumsum(new) - 1
    return ranks


def assert_matches_oracle(base, eps, seed=0):
    """``win_counts`` on the stack, rank-encoded when it has eps, against
    the dense resolver on (base, eps): counts and generator state."""
    gen, oracle_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    bids = base if eps is None else lexicographic_ranks(base, eps)
    wins = win_counts(bids, gen)
    expected = dense_win_counts(base, eps, oracle_gen)
    assert wins.dtype == np.int64
    np.testing.assert_array_equal(wins, expected)
    assert gen.bit_generator.state == oracle_gen.bit_generator.state
    return wins


@st.composite
def tied_stacks(draw):
    """Bid stacks on a coarse grid, so that base ties are common; one grid
    level makes every object an all-k tie.  eps, when present, also comes
    from a coarse grid, so that it breaks some base ties and leaves others
    tied."""
    k = draw(st.integers(2, 5))
    rows = draw(st.integers(1, 64))
    n = draw(st.integers(1, 12))
    levels = draw(st.integers(1, 4))
    eps_levels = draw(st.one_of(st.none(), st.integers(1, 3)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = gen.integers(0, levels, size=(k, rows, n)) / levels
    eps = None if eps_levels is None else gen.integers(-1, eps_levels - 1, size=(k, rows, n))
    return base, eps, draw(st.integers(0, 2**32 - 1))


class TestWinCountsOracle:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(tied_stacks())
    def test_equals_dense_resolver(self, case):
        base, eps, seed = case
        wins = assert_matches_oracle(base, eps, seed)
        assert np.all(wins.sum(axis=0) == base.shape[2])

    def test_no_ties_leaves_the_generator_untouched(self):
        gen = np.random.default_rng(1)
        base = gen.random((3, 500, 7))
        wins = assert_matches_oracle(base, None)
        np.testing.assert_array_equal(wins, (base == base.max(axis=0)).sum(axis=2))
        gen = np.random.default_rng(0)
        win_counts(base, gen)
        assert gen.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("eps_row", [None, 0, 1])
    def test_all_k_tie(self, eps_row):
        base = np.full((4, 50, 6), 0.25)
        eps = None
        if eps_row is not None:
            # eps 0 everywhere keeps the four-way tie; one raised row
            # leaves bidder 2 alone on top
            eps = np.zeros(base.shape, dtype=np.int64)
            eps[2] = eps_row
        wins = assert_matches_oracle(base, eps, seed=3)
        if eps_row == 1:
            assert np.all(wins[2] == 6)
        else:
            assert np.all(wins.sum(axis=0) == 6) and np.all(wins.sum(axis=1) > 0)

    def test_eps_tie_within_base_tie(self):
        # bidders 0, 1 and 2 tie on base; eps lifts 1 and 2 above 0, and
        # they stay tied with each other
        base = np.full((3, 200, 4), 0.5)
        eps = np.zeros(base.shape, dtype=np.int64)
        eps[1:] = 2
        wins = assert_matches_oracle(base, eps, seed=5)
        assert np.all(wins[0] == 0) and wins[1].sum() > 0 and wins[2].sum() > 0

    def test_more_than_255_objects(self):
        base = np.zeros((2, 3, 600))
        base[0] = 1.0
        base[:, 1, :300] = 1.0  # row 1 ties on half of its objects
        wins = assert_matches_oracle(base, None, seed=7)
        assert wins[0, 0] == 600 and wins[1, 0] == 0
        assert wins[0, 1] + wins[1, 1] == 600 and wins[0, 1] >= 300

    def test_more_than_255_bidders(self):
        # 257 top bidders would wrap a uint8 tie count to 1
        base = np.full((257, 4, 3), 0.5)
        wins = assert_matches_oracle(base, None, seed=9)
        assert np.all(wins.sum(axis=0) == 3)


class TestColumnMajorStacks:
    @pytest.mark.parametrize("levels", [None, 3], ids=["tie-free", "tie-heavy"])
    def test_win_counts_ignores_the_layout(self, levels):
        gen = np.random.default_rng(11)
        base = gen.random((3, 1500, 7))
        if levels is not None:
            base = np.floor(base * levels)
        columns = np.ascontiguousarray(base.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert not columns.flags.c_contiguous and columns[0].flags.f_contiguous
        gen, twin = np.random.default_rng(12), np.random.default_rng(12)
        np.testing.assert_array_equal(win_counts(columns, gen), win_counts(base, twin))
        assert gen.random() == twin.random()

    @pytest.mark.parametrize("n,extra", [(5, 100), (5, 700), (16, 30)])
    def test_play_planes_follow_by_columns(self, n, extra):
        # one full chunk, then a short one: 100 rows of 5 cells flip the layout back to rows
        rows = chunk_rows(2, n)
        seen, drawn = [], []

        def record(rng, plane):
            seen.append((len(plane), plane.flags.c_contiguous, plane.flags.f_contiguous))
            plane[...] = rng.generator.random(plane.shape)
            drawn.append(plane.copy())

        tally, _, kept = play(n, rows + extra, 3, [record, record], keep=(1, range(n)))
        assert [length for length, _, _ in seen] == [rows, rows, extra, extra]
        for length, c_order, f_order in seen:
            assert (f_order, c_order) == (by_columns(length, n), not by_columns(length, n))
        assert kept.flags.f_contiguous == by_columns(rows + extra, n)
        np.testing.assert_array_equal(kept, np.concatenate(drawn[1::2]))
        assert tally.count == rows + extra
        if n == 5:
            assert by_columns(rows, n) and by_columns(700, n) and not by_columns(100, n)

    def test_play_keeps_the_named_columns(self):
        n, drawn = 5, []

        def record(rng, plane):
            plane[...] = rng.generator.random(plane.shape)
            drawn.append(plane.copy())

        samples = chunk_rows(2, n) + 300
        _, _, kept = play(n, samples, 3, [record, record], keep=(1, [4, 1]))
        assert kept.shape == (samples, 2) and kept.flags.f_contiguous == by_columns(samples, 2)
        np.testing.assert_array_equal(kept, np.concatenate(drawn[1::2])[:, [4, 1]])


@pytest.mark.parametrize("k", range(2, 9))
def test_a_chunk_draw_is_one_sampler_block(k):
    # a sampler draws its rows in blocks of BLOCK // n; a chunk that fits in one block keeps
    # every play report's random numbers independent of the block rule
    for n in [*range(1, 21), 13_107, 65_536, 65_537, 10**6]:
        assert chunk_rows(k, n) <= max(1, samplers.BLOCK // n), n
