"""The 2D SUMMA algorithm (Algorithm 2): the paper's implementation."""

import math

import numpy as np
import pytest

from repro.comm import Category, VirtualRuntime
from repro.dist import make_algorithm
from repro.dist.algo_2d import DistGCN2D, summa_stage_ranges
from repro.graph import make_synthetic


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=110, avg_degree=5, f=12, n_classes=4, seed=23)


WIDTHS = (12, 8, 4)


class TestStageRanges:
    def test_square_grid_stages(self):
        stages = summa_stage_ranges(12, 3, 3)
        assert len(stages) == 3
        assert [(lo, hi) for lo, hi, _, _ in stages] == [(0, 4), (4, 8), (8, 12)]
        # Owners follow the block index.
        assert [ro for _, _, ro, _ in stages] == [0, 1, 2]
        assert [co for _, _, _, co in stages] == [0, 1, 2]

    def test_rectangular_refinement(self):
        stages = summa_stage_ranges(12, 2, 3)
        # Boundaries at 0,4,6,8,12 -> 4 stages.
        assert [(lo, hi) for lo, hi, _, _ in stages] == [
            (0, 4), (4, 6), (6, 8), (8, 12),
        ]
        # Each stage sits in exactly one row range and one col range.
        for lo, hi, ro, co in stages:
            assert 6 * ro <= lo < hi <= 6 * (ro + 1)
            assert 4 * co <= lo < hi <= 4 * (co + 1)

    def test_blocking_parameter_subdivides(self):
        plain = summa_stage_ranges(16, 2, 2)
        blocked = summa_stage_ranges(16, 2, 2, block=4)
        assert len(blocked) == 2 * len(plain)
        # Byte totals preserved: union of ranges identical.
        assert sum(hi - lo for lo, hi, _, _ in blocked) == 16

    def test_uneven_division(self):
        stages = summa_stage_ranges(10, 3, 3)
        assert sum(hi - lo for lo, hi, _, _ in stages) == 10


class TestVerification:
    @pytest.mark.parametrize("p", [1, 4, 9, 16])
    def test_square_grids_match_serial(self, ds, p):
        rt = VirtualRuntime.make_2d(p)
        algo = DistGCN2D(rt, ds.adjacency, WIDTHS, seed=1)
        diff = algo.verify_against_serial(ds.features, ds.labels, epochs=3, seed=1)
        assert diff < 1e-10

    @pytest.mark.parametrize("rows,cols", [(1, 4), (4, 1), (2, 3), (3, 2)])
    def test_rectangular_grids_match_serial(self, ds, rows, cols):
        """Section IV-C.6: the rectangular case is well-defined."""
        rt = VirtualRuntime.make_2d_rect(rows, cols)
        algo = DistGCN2D(rt, ds.adjacency, WIDTHS, seed=2)
        diff = algo.verify_against_serial(ds.features, ds.labels, epochs=2, seed=2)
        assert diff < 1e-10

    @pytest.mark.parametrize("block", [1, 8, 64])
    def test_blocking_parameter_preserves_results(self, ds, block):
        """Algorithm 2's blocking parameter b must not change numerics."""
        rt = VirtualRuntime.make_2d(4)
        algo = DistGCN2D(rt, ds.adjacency, WIDTHS, seed=3, summa_block=block)
        diff = algo.verify_against_serial(ds.features, ds.labels, epochs=2, seed=3)
        assert diff < 1e-10

    def test_narrow_features_fewer_than_grid(self):
        """f < sqrt(P) produces empty feature blocks on some columns --
        the hypersparse/skinny regime of Section VI-a."""
        ds2 = make_synthetic(n=80, avg_degree=4, f=2, n_classes=2, seed=4)
        rt = VirtualRuntime.make_2d(16)
        algo = DistGCN2D(rt, ds2.adjacency, (2, 3, 2), seed=4)
        diff = algo.verify_against_serial(ds2.features, ds2.labels, epochs=2, seed=4)
        assert diff < 1e-10

    def test_directed_adjacency(self):
        from repro.graph.generators import erdos_renyi
        from repro.graph.normalize import add_self_loops, row_normalize

        directed = row_normalize(
            add_self_loops(erdos_renyi(60, 4.0, seed=5, directed=True))
        )
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((60, 8))
        labels = rng.integers(0, 3, 60)
        rt = VirtualRuntime.make_2d(4)
        algo = DistGCN2D(rt, directed, (8, 6, 3), seed=5)
        diff = algo.verify_against_serial(feats, labels, epochs=3, seed=5)
        assert diff < 1e-10


class TestCommunicationAccounting:
    def _epoch(self, ds, p, widths=WIDTHS):
        rt = VirtualRuntime.make_2d(p)
        algo = DistGCN2D(rt, ds.adjacency, widths, seed=0)
        algo.setup(ds.features, ds.labels)
        return algo.train_epoch(0)

    @staticmethod
    def _directed(n=64):
        """A directed operand (``A != A^T``) with features and labels."""
        from repro.graph.generators import erdos_renyi
        from repro.graph.normalize import add_self_loops, row_normalize

        a_t = row_normalize(
            add_self_loops(erdos_renyi(n, 4.0, seed=6, directed=True))
        )
        rng = np.random.default_rng(2)
        return a_t, rng.standard_normal((n, 8)), rng.integers(0, 3, n)

    def test_all_three_comm_categories_present(self):
        """On a directed operand 2D's set-up moves sparse pieces
        (scomm), dense blocks (dcomm) and transposes the ``A`` grid
        (trpose) -- Fig. 3's stack, which the paper pays every epoch.
        The pieces and the ``A`` grid move once: an epoch moves dense
        blocks only."""
        a_t, feats, labels = self._directed()
        algo = DistGCN2D(VirtualRuntime.make_2d(4), a_t, (8, 6, 3), seed=0)
        hist = algo.fit(feats, labels, epochs=2)
        assert hist.setup.scomm_bytes > 0
        assert hist.setup.dcomm_bytes > 0
        assert hist.setup.bytes_by_category[Category.TRPOSE] > 0
        for st in hist.epochs:
            assert st.dcomm_bytes > 0
            assert st.scomm_bytes == 0
            assert st.bytes_by_category[Category.TRPOSE] == 0

    def test_symmetric_input_needs_no_transpose(self, ds):
        """For A == A^T the A grid is the A^T grid, its blocks shared, so
        no transpose exchange is charged."""
        rt = VirtualRuntime.make_2d(4)
        algo = DistGCN2D(rt, ds.adjacency, WIDTHS, seed=0)
        assert algo.a_blocks is algo.a_t_blocks
        algo.setup(ds.features, ds.labels)
        for epoch in range(2):
            st = algo.train_epoch(epoch)
            assert st.bytes_by_category[Category.TRPOSE] == 0
        assert all(rt.tracker.per_rank[r][Category.TRPOSE].bytes == 0
                   for r in range(rt.size))

    @pytest.mark.parametrize("grid", [(2, 2), (2, 3)])
    def test_directed_input_charges_transpose(self, grid):
        """A directed operand's A grid moves once, at set-up: each rank
        is charged its own block of ``A`` on the wire, and no epoch
        charges it again (the set-up keeps the grid's SUMMA pieces)."""
        a_t, feats, labels = self._directed()
        rt = VirtualRuntime.make_2d_rect(*grid)
        p = rt.size
        algo = DistGCN2D(rt, a_t, (8, 6, 3), seed=0)
        assert algo.a_blocks is not algo.a_t_blocks
        algo.setup(feats, labels)
        per_rank = [algo.a_blocks[r].nbytes_on_wire for r in range(p)]
        assert [rt.tracker.per_rank[r][Category.TRPOSE].bytes
                for r in range(p)] == per_rank
        for epoch in range(2):
            st = algo.train_epoch(epoch)
            assert st.bytes_by_category[Category.TRPOSE] == 0
        assert [rt.tracker.per_rank[r][Category.TRPOSE].bytes
                for r in range(p)] == per_rank

    def _epoch_rank_bytes(self, ds, p, widths):
        """One epoch's stats and, per rank, its comm bytes by category,
        over the set-up and over the epoch."""
        rt = VirtualRuntime.make_2d(p)
        algo = DistGCN2D(rt, ds.adjacency, widths, seed=0)
        sections = []
        for run in (lambda: algo.setup(ds.features, ds.labels),
                    lambda: algo.train_epoch(0)):
            before = rt.tracker.snapshot()
            st = run()
            sections.append([
                {c: rt.tracker.per_rank[r][c].bytes
                 - before.per_rank[r][c].bytes for c in Category.COMM}
                for r in range(p)])
        return st, sections[0], sections[1]

    def test_per_rank_comm_shrinks_with_sqrt_p(self):
        """The headline claim: per-process words scale as 1/sqrt(P).

        Doubling sqrt(P) (P: 4 -> 16) cuts both parts of a rank's
        bytes, each pinned exactly here.  Sparse, at set-up: every stage
        broadcasts its piece along the process row once, and every rank
        keeps what it received, so rank ``(i, j)`` books its process
        row's block of ``A^T`` once -- 12 bytes a nonzero plus each
        stage piece's row pointers; a uniform graph's process row holds
        ``nnz / sqrt(P)`` nonzeros -- and no epoch books a sparse byte.
        Dense, the whole epoch: each
        stage's rows are pinned to the adjacency: a stage relays its
        block down the process columns, the member ``p`` hops after the
        root booking ``U_p``, the rows the members ``p .. q - 1`` hops
        down read, and the root ``U_1`` (:meth:`~repro.dist.grid.
        GridAlgorithm._summa_stage`).  The rest of the epoch is dense and
        pinned exactly to closed forms from the widths: the 16 -> 4
        layer's replicated-W funnels (reduce-scatter of ``H W``,
        all-gather of ``A G``; a ring moves (sqrt(P) - 1) / P of a row
        group's words per rank, 1/4 -> 3/16, a 4/3 cut), the
        ``log_softmax`` statistic (each member's two words a row, or its
        columns where it holds fewer: here the same 4 words a row at
        both P, the same cut) and the gradient bucket: each column group
        all-reduces its band (the loss pair and 1 / sqrt(P) of the
        weight words), then each row group all-gathers the bands.  No
        transpose: the symmetric operand's ``A`` grid is its ``A^T``
        grid.  The epoch's per-rank ratio is its dense part's, near
        1.32."""
        big = make_synthetic(n=600, avg_degree=6, f=32, n_classes=4, seed=6)
        n, w = big.num_vertices, (32, 16, 4)
        f = w[-1]  # both sweeps and every funnel run at the narrow side
        nonzero = big.adjacency.to_dense() != 0  # symmetric: A == A^T
        row_nnz = np.diff(big.adjacency.indptr)

        def sparse_closed_form(p):
            q = math.isqrt(p)
            bounds = [k * n // q for k in range(q + 1)]
            rows = [(bounds[i], bounds[i + 1]) for i in range(q)]
            per_row = [12 * int(row_nnz[lo:hi].sum())
                       + 4 * q * (hi - lo + 1) for lo, hi in rows]
            return np.repeat(per_row, q).tolist()

        def dense_closed_form(p):
            q = math.isqrt(p)
            bounds = [k * n // q for k in range(q + 1)]
            sweeps = np.zeros(q, dtype=np.int64)  # per process row
            for t in range(q):
                stage = slice(bounds[t], bounds[t + 1])
                reads = [nonzero[bounds[i]:bounds[i + 1], stage].any(axis=0)
                         for i in range(q)]
                hop = [int(np.any([reads[(t + h) % q] for h in range(d, q)],
                                  axis=0).sum()) for d in range(q)]
                moved = [hop[(i - t) % q] for i in range(q)]
                moved[t] = hop[1] if q > 1 else 0  # the root sends U_1
                sweeps += moved
            sweeps = 2 * sweeps * (f // q) * 8
            funnels = 2 * (q - 1) * (n // q) * f * 8 // q
            # log_softmax's statistic: a member's two words a row, or its
            # columns where it holds fewer (at P = 16 each holds one)
            words = sum(min(2, len(c)) for c in np.array_split(range(f), q))
            pairs = (q - 1) * (n // q) * words * 8 // q
            # every rank's band: the loss pair and 1/q of each Y^l
            band = 2 * 8 + (w[0] * w[1] + w[1] * w[2]) * 8 // q
            bucket = 2 * (band * (q - 1) // q) + band * (q - 1)
            return np.repeat(sweeps, q).tolist(), funnels + pairs + bucket

        max_rank, sweep_max, parts, kept = {}, {}, {}, {}
        for p in (4, 16):
            st, setup, ranks = self._epoch_rank_bytes(big, p, w)
            sweeps, rest = dense_closed_form(p)
            assert [d[Category.DCOMM] - rest for d in ranks] == sweeps
            assert [d[Category.SCOMM] for d in setup] == \
                sparse_closed_form(p)
            assert all(d[Category.SCOMM] == 0 for d in ranks)
            assert all(d[Category.TRPOSE] == 0 for d in setup + ranks)
            max_rank[p] = st.max_rank_comm_bytes
            busiest = max(ranks, key=lambda d: sum(d.values()))
            assert sum(busiest.values()) == max_rank[p]
            parts[p] = busiest
            kept[p] = setup[ranks.index(busiest)][Category.SCOMM]
            sweep_max[p] = max_rank[p] - rest
        # ideal 2.0; 1.43 here (1.54 while a symmetric operand paid the
        # transpose, 1.47 while only the P = 4 stages sent just the rows
        # they read, 1.59 while every stage broadcast): the P = 16 relay
        # moves fewer rows too, the P = 4 stages the same
        assert 1.4 < sweep_max[4] / sweep_max[16] < 3.0
        # The busiest rank is process row 0's at both P.  Its set-up
        # sparse bytes 34 700 -> 24 784, 1.40: this graph's low rows are
        # the dense ones, so row block 0 keeps 2 691 -> 1 864 nonzeros,
        # not half.  Its epoch is all dense, 29 376 -> 22 184, 1.32: the
        # stage rows halve, the funnels cut 4/3, the bucket's bands
        # shrink and their gather grows.
        sparse = kept[4] / kept[16]
        dense = parts[4][Category.DCOMM] / parts[16][Category.DCOMM]
        assert 1.35 < sparse < 1.45 and 1.3 < dense < 1.35
        # So the whole ratio is the dense one, 1.324 here.  It was 1.237
        # (31 672 -> 25 598 bytes) while the world all-reduced the whole
        # bucket, 2 (P - 1) / P of its words per rank.  1.345
        # (101 072 -> 75 166 bytes) while every epoch moved the sparse
        # pieces again, twice its set-up bytes: the bytes-weighted mean
        # of the two parts' ratios.  1.445 while 2D charged a symmetric
        # operand's per-epoch transpose, 26 428 -> 13 084 bytes at that
        # rank: a block's nonzeros, ~1/P on a uniform graph, so the part
        # fell faster than the others and lifted the ratio.  (Before
        # that: P = 16's busiest rank 91 722 -> 88 250 bytes with its
        # stages relayed; 1.390 while only the P = 4 stages sent just
        # the rows they read, 1.487 while every stage broadcast, 1.669
        # while the funnels broadcast the 16-wide operand, 1/sqrt(P) of
        # a row group's words per rank.)
        assert max_rank[4] / max_rank[16] == dense
        assert 1.3 < max_rank[4] / max_rank[16] < 1.35

    def test_total_sparse_bytes_grow_with_sqrt_p(self):
        """Aggregate sparse traffic is nnz * sqrt(P) words: each stage
        broadcasts nnz/P to sqrt(P)-1 receivers, P stages per SpMM --
        once, at set-up, where every rank keeps its pieces."""
        big = make_synthetic(n=600, avg_degree=6, f=32, n_classes=4, seed=6)
        w = (32, 16, 4)
        _, setup4, epoch4 = self._epoch_rank_bytes(big, 4, w)
        _, setup16, epoch16 = self._epoch_rank_bytes(big, 16, w)
        # Per-rank scomm should be roughly flat-to-halving; totals grow.
        assert sum(d[Category.SCOMM] for d in setup16) > \
            sum(d[Category.SCOMM] for d in setup4)
        assert all(d[Category.SCOMM] == 0 for d in epoch4 + epoch16)

    @staticmethod
    def _reads_every_row(algo) -> bool:
        """Does every member of every stage read every row of the stage
        block, so that each relay hop carries the whole block -- the
        pipelined broadcast the paper prices?"""
        return all(rows is None for st in algo._summa["a_t"]
                   for layer in st.rows for rows in layer)

    def test_tall_grid_cuts_sparse_bytes_square_minimises_dense(self):
        """Section IV-C.6: where the degree far exceeds the feature width
        a tall grid moves fewer sparse bytes than a wide one, while the
        square grid minimises the dense total (the smallest perimeter).
        The dense side is checked on the set-up plus one epoch, the pass
        that still pairs every SpMM sweep with a replicated-``W``
        product.  On a graph where every stage member reads every row,
        so each stage relays its whole block: the paper's pipelined
        broadcast.  The sparse side is the set-up's: the pieces move
        once, there."""
        big = make_synthetic(n=512, avg_degree=160, f=8, n_classes=4,
                             seed=0, generator="erdos_renyi")
        sparse, dense = {}, {}
        for grid in ((2, 8), (4, 4), (8, 2)):
            algo = make_algorithm("2d", 16, big, hidden=8, seed=0, grid=grid)
            assert self._reads_every_row(algo)
            hist = algo.fit(big.features, big.labels, epochs=1)
            assert hist.epochs[0].scomm_bytes == 0
            sparse[grid] = hist.setup.scomm_bytes
            dense[grid] = hist.setup.dcomm_bytes + hist.epochs[0].dcomm_bytes
        assert sparse[(8, 2)] < sparse[(2, 8)]
        assert min(dense, key=dense.get) == (4, 4)
        # (1 333 216 / 1 005 536 / 1 234 912 while the world all-reduced
        # the whole gradient bucket: 16 352 / 14 688 / 10 016 bytes more
        # than the column bands' all-reduces and row gathers, on any
        # graph)
        assert dense == {(2, 8): 1316864, (4, 4): 990848, (8, 2): 1224896}

    def test_relayed_stages_move_less_than_the_broadcast(self):
        """The same three grids on an R-MAT graph whose members read a
        part of each stage: every relay hop carries at most the block,
        so each grid's dense total falls below the full-read one above
        (its rows do not depend on the graph), and the square grid
        still moves the least."""
        big = make_synthetic(n=512, avg_degree=24, f=8, n_classes=4, seed=0)
        dense = {}
        for grid in ((2, 8), (4, 4), (8, 2)):
            algo = make_algorithm("2d", 16, big, hidden=8, seed=0, grid=grid)
            assert not self._reads_every_row(algo)
            hist = algo.fit(big.features, big.labels, epochs=1)
            dense[grid] = hist.setup.dcomm_bytes + hist.epochs[0].dcomm_bytes
        # (1 269 728 / 881 376 / 955 872 with the world all-reduce)
        assert dense == {(2, 8): 1253376, (4, 4): 866688, (8, 2): 945856}

    def test_summa_block_keeps_dense_bytes_and_adds_messages(self):
        """Algorithm 2's blocking parameter ``b``: smaller blocks move the
        same dense bytes in more, smaller broadcasts -- on a graph where
        every stage member reads every row, so each stage relays its
        whole block."""
        big = make_synthetic(n=384, avg_degree=160, f=24, n_classes=4,
                             seed=0, generator="erdos_renyi")
        dense, msgs = {}, {}
        for b in (None, 64, 16):
            algo = make_algorithm("2d", 16, big, hidden=16, seed=0,
                                  summa_block=b)
            assert self._reads_every_row(algo)
            algo.setup(big.features, big.labels)
            dense[b] = algo.train_epoch(0).dcomm_bytes
            msgs[b] = algo.rt.tracker.total_messages()
        assert dense[None] == dense[64] == dense[16]
        assert msgs[16] > msgs[64] > msgs[None]

    @pytest.mark.parametrize("p", [4, 16])
    def test_relayed_stages_move_the_same_rows_at_every_block(self, p):
        """The relayed form of the claim above: a hop carries the rows
        of its stage that the members after it read, and cutting a
        stage into blocks splits those rows between them -- so the dense
        bytes agree at every ``b`` on a graph whose members read a part
        of each stage too, while the steps multiply."""
        big = make_synthetic(n=384, avg_degree=12, f=24, n_classes=4, seed=0)
        dense, msgs = {}, {}
        for b in (None, 16, 4):
            algo = make_algorithm("2d", p, big, hidden=16, seed=0,
                                  summa_block=b)
            assert not self._reads_every_row(algo)
            algo.setup(big.features, big.labels)
            dense[b] = algo.train_epoch(0).dcomm_bytes
            msgs[b] = algo.rt.tracker.total_messages()
        assert dense[None] == dense[16] == dense[4]
        assert msgs[4] > msgs[16] > msgs[None]

    @pytest.mark.parametrize("name,p", [("2d", 16), ("2d", 8), ("3d", 27)])
    def test_full_reads_relay_is_the_pipelined_broadcast(self, name, p):
        """Where every member reads every row, each stage's relay books
        every member of each column the whole block in one message at
        the pipelined broadcast's price: its per-rank charges -- bytes,
        messages and modeled seconds -- are the broadcast's entry for
        entry."""
        big = make_synthetic(n=512, avg_degree=160, f=8, n_classes=4,
                             seed=0, generator="erdos_renyi")
        kw = {"grid": (4, 2)} if p == 8 else {}
        algo = make_algorithm(name, p, big, hidden=8, seed=0, **kw)
        stages = getattr(algo, "_summa", None) or algo._split
        assert all(rows is None for st in stages["a_t"]
                   for layer in st.rows for rows in layer)
        algo.setup(big.features, big.labels)
        algo.train_epoch(0)
        coll, mesh = algo.rt.coll, algo.mesh
        relays = [key for key in algo._cache if key[0] == "rdch"]
        assert relays
        for key in relays:
            _, op, f, t = key
            st = stages[op][t]
            fcols = algo._fsplit(f)
            items = []
            for k, roots in enumerate(st.roots):
                rows = (st.window[1] - st.window[0] if st.window
                        else algo._rows_of(roots[0]))
                for j, (lo, hi) in enumerate(fcols):
                    group = (mesh.col_group(j) if name == "2d"
                             else mesh.col_group(j, k))
                    items.append((group, rows * (hi - lo) * algo.WB))
            assert sorted(algo._cache[key]) == sorted(
                coll.charges("broadcast", items, pipelined=True))

    def test_epoch_deterministic(self, ds):
        s1 = self._epoch(ds, 9)
        s2 = self._epoch(ds, 9)
        assert s1.dcomm_bytes == s2.dcomm_bytes
        assert s1.scomm_bytes == s2.scomm_bytes


class TestTrainingBehaviour:
    def test_loss_decreases(self, ds):
        rt = VirtualRuntime.make_2d(9)
        algo = DistGCN2D(rt, ds.adjacency, WIDTHS, seed=7)
        hist = algo.fit(ds.features, ds.labels, epochs=15)
        assert hist.final_loss < hist.losses[0]

    def test_wrong_mesh_rejected(self, ds):
        rt = VirtualRuntime.make_1d(4)
        with pytest.raises(TypeError, match="2D mesh"):
            DistGCN2D(rt, ds.adjacency, WIDTHS)

    def test_gather_log_probs_shape(self, ds):
        rt = VirtualRuntime.make_2d(4)
        algo = DistGCN2D(rt, ds.adjacency, WIDTHS, seed=8)
        algo.fit(ds.features, ds.labels, epochs=1)
        lp = algo.gather_log_probs()
        assert lp.shape == (ds.num_vertices, WIDTHS[-1])
        np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-9)
