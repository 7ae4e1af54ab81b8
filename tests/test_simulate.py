"""The scaling simulator: exactness against executed ledgers + sweeps.

The subsystem's contract (ISSUE 2 acceptance): for every registered
algorithm, the simulator-predicted epoch communication volume matches the
executed virtual-run ledger **exactly** at P in {4, 8, 16} (each
algorithm tested at the rank counts its mesh realises), and a full
(4 algorithms x 3 machines x P up to 16384) sweep completes in seconds
with valid JSON.
"""

import json
import time

import numpy as np
import pytest

from repro.comm.tracker import Category
from repro.dist import ALGORITHMS, make_algorithm
from repro.dist.registry import make_runtime_for
from repro.graph import make_synthetic
from repro.simulate import (
    DEFAULT_P_GRID,
    GraphModel,
    evaluate_schedule,
    get_machine,
    list_machines,
    predict_epoch,
    sweep,
)
from repro.simulate.engine import default_algo_kwargs, supports_p
from repro.simulate.schedule import CommSchedule, TransposePhase
from repro.sparse.csr import CSRMatrix
from repro.sparse.distribute import block_ranges, distribute_sparse_2d


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic(n=70, avg_degree=5, f=12, n_classes=3, seed=1)


@pytest.fixture(scope="module")
def graph(dataset):
    return GraphModel.from_dataset(dataset)


@pytest.fixture(scope="module")
def directed():
    rng = np.random.default_rng(0)
    n = 60
    rows = rng.integers(0, n, 400)
    cols = rng.integers(0, n, 400)
    a_t = CSRMatrix.from_coo(rows, cols, rng.random(400), (n, n))
    feats = rng.random((n, 10))
    labels = rng.integers(0, 3, n).astype(np.int64)
    return a_t, feats, labels


def _executed_epoch(name, p, dataset, **kwargs):
    """Epoch 0's ledger delta, measured from a zeroed ledger: a delta
    taken on top of the set-up charge is a float subtraction, exact in
    bytes but not to the last bit in seconds."""
    algo = make_algorithm(name, p, dataset, hidden=8, seed=0, **kwargs)
    algo.setup(dataset.features, dataset.labels)
    algo.rt.reset_stats()
    return algo.train_epoch(0)


def reinstall_section(schedule: CommSchedule) -> CommSchedule:
    """The one-time section of a later install: a new feature matrix is
    aggregated (and, in 2D / 3D, gathered) again, but the 2D / 3D
    stages' sparse pieces -- and a directed operand's ``A`` grid --
    moved at the first install only, and stay kept."""
    return CommSchedule(schedule.p, [
        ph for ph in schedule.setup.phases
        if not isinstance(ph, TransposePhase)
        and getattr(ph, "category", None) != Category.SCOMM])


def assert_sections_exact(algo, features, labels, schedule, profile):
    """The ledger across ``setup()`` == the schedule's one-time section,
    across epoch 0 and epoch 1 each == its per-epoch section, and across
    a second ``setup()`` with a new feature matrix == the one-time
    section without what only the first install moves
    (:func:`reinstall_section`).

    Bytes, messages and steps are integers and compare as deltas.
    Seconds compare as running totals: the tracker and the simulator add
    the same per-step seconds in the same order, so the ledger's wall
    clock after each section equals the schedule priced up to there.
    """
    tracker = algo.rt.tracker
    sections = [
        (schedule.setup, lambda: algo.setup(features, labels)),
        (schedule, lambda: algo.train_epoch(0)),
        (schedule, lambda: algo.train_epoch(1)),
        (reinstall_section(schedule),
         lambda: algo.setup(np.asarray(features) + 1.0, labels)),
    ]
    done = []
    for section, run in sections:
        before = tracker.snapshot()
        messages, steps = tracker.total_messages(), tracker.nsteps
        run()
        priced = evaluate_schedule(section, profile)
        delta = tracker.delta_since(before)
        for cat in Category.ALL:
            assert priced.bytes_by_category[cat] == delta[cat].bytes, cat
        assert priced.messages == tracker.total_messages() - messages
        assert priced.nphases == tracker.nsteps - steps
        done.extend(section.phases)
        so_far = evaluate_schedule(
            CommSchedule(schedule.p, list(done)), profile)
        for cat in Category.ALL:
            assert so_far.seconds_by_category[cat] == \
                tracker.wall_seconds(cat), cat
    assert schedule.setup.nphases > 0


# Exactness by construction: the simulator prices its phases with the
# rules the ledger charges through, on every machine preset (tiered,
# congested and free) and every kind of phase the four families emit.
EXACT_MACHINES = ["summit", "cori-gpu", "ethernet", "commodity", "zero-cost"]
EXACT_CONFIGS = [
    pytest.param("1d", 8, {"variant": "symmetric"}, id="1d-symmetric"),
    pytest.param("1d", 8, {"variant": "outer_sparse"}, id="1d-outer_sparse"),
    pytest.param("1d", 8, {"variant": "transpose"}, id="1d-transpose"),
    pytest.param("1d", 8, {"variant": "ghost"}, id="1d-ghost"),
    pytest.param("1.5d", 8, {"replication": 2}, id="1.5d-c2"),
    pytest.param("2d", 16, {}, id="2d-16"),
    pytest.param("2d", 8, {"grid": (2, 4)}, id="2d-2x4"),
    pytest.param("3d", 27, {}, id="3d-27"),
]


# The acceptance grid: every registered algorithm at each P in {4, 8, 16}
# its process mesh realises.
ACCEPTANCE = [
    (name, p)
    for name in sorted(ALGORITHMS)
    for p in (4, 8, 16)
    if supports_p(name, p)
]


class TestLedgerExactness:
    @pytest.mark.parametrize("name,p", ACCEPTANCE)
    def test_volume_matches_executed_ledger(self, name, p, dataset, graph):
        stats = _executed_epoch(name, p, dataset)
        point = predict_epoch(name, graph, p, hidden=8)
        for cat in Category.COMM:
            assert point.bytes_by_category[cat] == \
                stats.bytes_by_category[cat], (name, p, cat)

    @pytest.mark.parametrize("name,p", ACCEPTANCE)
    def test_modeled_seconds_match(self, name, p, dataset, graph):
        stats = _executed_epoch(name, p, dataset)
        point = predict_epoch(name, graph, p, hidden=8)
        assert point.seconds == stats.modeled_seconds
        for cat in Category.ALL:
            assert point.seconds_by_category[cat] == \
                stats.seconds_by_category[cat], (name, p, cat)

    @pytest.mark.parametrize("machine", EXACT_MACHINES)
    @pytest.mark.parametrize("name,p,kwargs", EXACT_CONFIGS)
    def test_seconds_messages_steps_exact(self, name, p, kwargs, machine,
                                          dataset, graph):
        profile = get_machine(machine)
        algo = make_algorithm(name, p, dataset, hidden=8, seed=0,
                              profile=profile, **kwargs)
        schedule = ALGORITHMS[name].emit_comm_schedule(
            graph, algo.widths, p, **kwargs)
        assert_sections_exact(algo, dataset.features, dataset.labels,
                               schedule, profile)

    @pytest.mark.parametrize("machine", EXACT_MACHINES)
    @pytest.mark.parametrize("variant", ["outer", "transpose"])
    def test_directed_sections_exact(self, variant, machine, directed):
        """The hoist does not need ``A == A^T``."""
        a_t, feats, labels = directed
        widths = (10, 8, 8, 3)
        profile = get_machine(machine)
        algo = ALGORITHMS["1d"](make_runtime_for("1d", 8, profile=profile),
                                a_t, widths, seed=0, variant=variant)
        schedule = ALGORITHMS["1d"].emit_comm_schedule(
            GraphModel.from_csr(a_t, name="directed"), widths, 8,
            variant=variant)
        assert_sections_exact(algo, feats, labels, schedule, profile)

    @pytest.mark.parametrize(
        "variant",
        ["symmetric", "outer", "outer_sparse", "transpose", "ghost"],
    )
    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_1d_variants_exact(self, variant, p, dataset, graph):
        stats = _executed_epoch("1d", p, dataset, variant=variant)
        point = predict_epoch("1d", graph, p, hidden=8, variant=variant)
        for cat in Category.COMM:
            assert point.bytes_by_category[cat] == \
                stats.bytes_by_category[cat], (variant, cat)
        assert point.seconds == stats.modeled_seconds

    @pytest.mark.parametrize("p,c", [(4, 2), (8, 4), (16, 2), (16, 4)])
    def test_15d_replication_exact(self, p, c, dataset, graph):
        stats = _executed_epoch("1.5d", p, dataset, replication=c)
        point = predict_epoch("1.5d", graph, p, hidden=8, replication=c)
        for cat in Category.COMM:
            assert point.bytes_by_category[cat] == \
                stats.bytes_by_category[cat]
        assert point.seconds == stats.modeled_seconds

    @pytest.mark.parametrize("grid", [(2, 4), (4, 2)])
    def test_2d_rectangular_exact(self, grid, dataset, graph):
        p = grid[0] * grid[1]
        stats = _executed_epoch("2d", p, dataset, grid=grid)
        point = predict_epoch("2d", graph, p, hidden=8, grid=grid)
        for cat in Category.COMM:
            assert point.bytes_by_category[cat] == \
                stats.bytes_by_category[cat]

    def test_2d_summa_blocking_exact(self, dataset, graph):
        stats = _executed_epoch("2d", 4, dataset, summa_block=13)
        point = predict_epoch("2d", graph, 4, hidden=8, summa_block=13)
        for cat in Category.COMM:
            assert point.bytes_by_category[cat] == \
                stats.bytes_by_category[cat]

    @pytest.mark.parametrize(
        "name,p", [("1d", 4), ("1d", 8), ("2d", 4), ("2d", 16), ("3d", 8)]
    )
    def test_directed_operand_exact(self, name, p, directed):
        a_t, feats, labels = directed
        widths = (10, 8, 8, 3)
        rt = make_runtime_for(name, p)
        algo = ALGORITHMS[name](rt, a_t, widths, seed=0)
        algo.setup(feats, labels)
        stats = algo.train_epoch(0)
        gm = GraphModel.from_csr(a_t, name="directed")
        assert not gm.symmetric
        schedule = ALGORITHMS[name].emit_comm_schedule(gm, widths, p)
        result = evaluate_schedule(schedule, get_machine(None))
        for cat in Category.COMM:
            assert result.bytes_by_category[cat] == \
                stats.bytes_by_category[cat], (name, cat)

    def test_prediction_is_steady_state(self, dataset, graph):
        """Every epoch charges identically; epoch 1 matches the schedule."""
        algo = make_algorithm("2d", 4, dataset, hidden=8, seed=0)
        algo.setup(dataset.features, dataset.labels)
        algo.train_epoch(0)
        second = algo.train_epoch(1)
        point = predict_epoch("2d", graph, 4, hidden=8)
        for cat in Category.COMM:
            assert point.bytes_by_category[cat] == \
                second.bytes_by_category[cat]


#: A directed shape-only graph: the grid emitters' transpose and ``A``
#: pieces under the uniform model.
DIRECTED_UNIFORM = GraphModel.uniform(100_000, 2_000_000, name="directed",
                                      symmetric=False, features=64,
                                      n_classes=8)

#: Uniform-model grid schedules no executed run reaches (the exact-model
#: tests above guard the executed shapes): per section, one-time then
#: per-epoch, ``(dcomm, scomm, trpose bytes, messages, phases)`` at the
#: paper's fp32 element size.  Recorded before the 2D emitter became the
#: one-layer case of the Split-3D one; unchanged by it.  The per-epoch
#: sections moved when the gradient bucket's world all-reduce became a
#: column-band all-reduce and a row-group all-gather (one phase more):
#: ``dcomm`` / messages / phases were Amazon 4x16 59445959296 / 6912 /
#: 277, 16x4 47973898880 / 6272 / 193, Reddit 533357820 / 1056 / 137,
#: Protein 3D 111969116160 / 39424 / 137, directed 2D 144039648 / 544 /
#: 70 and 3D 202182528 / 2944 / 74.  Then ``log_softmax`` began to
#: gather a per-row statistic, two words a member (or its columns, where
#: it holds fewer): per-epoch ``dcomm`` Amazon 16x4 47972857472 ->
#: 46162280576, Reddit 532852380 -> 440598240, Protein 3D 111957704704 ->
#: 53187662464; Amazon 4x16 (at most two of 24 classes a member) and the
#: directed graph (8 classes over 4 members) did not move.
UNIFORM_GRID_PINS = {
    ("amazon", "2d", 64, (("grid", (4, 16)),)): (
        (214986979200, 42318114432, 0, 2688, 58),
        (59444668672, 0, 0, 6656, 278)),
    ("amazon", "2d", 64, (("grid", (16, 4)),)): (
        (212134171200, 10579531808, 0, 2560, 58),
        (46162280576, 0, 0, 6144, 194)),
    ("reddit", "2d", 16, (("summa_block", 20000),)): (
        (3926858040, 3727348272, 0, 416, 37),
        (440598240, 0, 0, 1024, 138)),
    ("protein", "3d", 512, ()): (
        (98509785088, 86190283520, 0, 11264, 26),
        (53187662464, 0, 0, 37888, 138)),
    ("directed", "2d", 16, ()): (
        (179026944, 140800512, 17600064, 240, 18),
        (143972736, 0, 0, 512, 71)),
    ("directed", "3d", 64, ()): (
        (255827968, 179202048, 22400256, 1088, 19),
        (201915264, 0, 0, 2816, 75)),
}


class TestUniformGridPins:
    @pytest.mark.parametrize("case", sorted(UNIFORM_GRID_PINS),
                             ids=lambda c: "-".join(map(str, c[:3])))
    def test_paper_scale_grid_schedules(self, case):
        from repro.config import FP32_BYTES
        from repro.graph.datasets import layer_widths

        dataset, family, p, kwargs = case
        graph = (DIRECTED_UNIFORM if dataset == "directed"
                 else GraphModel.from_published(dataset))
        widths = layer_widths(graph.features, graph.n_classes)
        schedule = ALGORITHMS[family].emit_comm_schedule(
            graph, widths, p, word_bytes=FP32_BYTES, **dict(kwargs))
        profile = get_machine(None)
        for section, pin in zip((schedule.setup, schedule),
                                UNIFORM_GRID_PINS[case]):
            priced = evaluate_schedule(section, profile)
            got = tuple(priced.bytes_by_category[c] for c in
                        (Category.DCOMM, Category.SCOMM, Category.TRPOSE))
            assert got + (priced.messages, priced.nphases) == pin
            assert priced.bytes_by_category[Category.SPMM] == 0
            assert priced.bytes_by_category[Category.MISC] == 0


class TestGraphModel:
    def test_cell_counts_partition_nnz(self, dataset, graph):
        bounds = np.array(
            [0] + [hi for _, hi in block_ranges(graph.n, 3)]
        )
        cells = graph.cell_nnz(4, bounds)
        assert cells.shape == (4, 3)
        assert cells.sum() == graph.nnz

    def test_cells_match_distributed_blocks(self, dataset, graph):
        mesh = make_runtime_for("2d", 4).mesh2d
        blocks = distribute_sparse_2d(dataset.adjacency, mesh)
        bounds = np.array(
            [0] + [hi for _, hi in block_ranges(graph.n, 2)]
        )
        cells = graph.cell_nnz(2, bounds)
        for i in range(2):
            for j in range(2):
                assert cells[i, j] == blocks[mesh.rank_of(i, j)].nnz

    @pytest.mark.parametrize("operand", ["undirected", "directed",
                                         "directed-transpose"])
    def test_nonzero_cols_match_distributed_blocks(self, dataset, directed,
                                                   operand):
        """Per cell and cyclic run of row blocks, the columns holding a
        nonzero: the dense rows a hop of a SUMMA stage's relay carries
        -- the union of the nonempty columns of the run's distributed
        blocks, each run at most its nonzeros and its cell's width, and
        never more than the run one block longer; a uniform run expects
        ``w (1 - e^{-z / w})`` of its ``z`` nonzeros, rounded."""
        a_t = dataset.adjacency if operand == "undirected" else directed[0]
        transpose = operand == "directed-transpose"
        graph = GraphModel.from_csr(a_t)
        mesh = make_runtime_for("2d", 16).mesh2d
        blocks = distribute_sparse_2d(
            a_t.transpose() if transpose else a_t, mesh)
        bounds = np.array([0] + [hi for _, hi in block_ranges(graph.n, 4)])
        roots = [2, 0, 3, 1]
        runs = graph.run_nonzero_cols(4, bounds, roots, transpose=transpose)
        nnz = graph.cell_nnz(4, bounds, transpose=transpose)
        assert runs.shape == (4, 4)
        for c, root in enumerate(roots):
            for p in range(4):
                run = [(root + q) % 4 for q in range(p, 4)]
                cols = [blocks[mesh.rank_of(i, c)].nonempty_columns()
                        for i in run]
                assert runs[p, c] == np.unique(np.concatenate(cols)).size
                assert runs[p, c] <= nnz[run, c].sum()
        assert (runs <= np.diff(bounds)).all()
        assert (np.diff(runs, axis=0) <= 0).all()
        gm = GraphModel.uniform(1000, 12345)
        cells = np.array([0, 300, 1000])
        z = gm.cell_nnz(5, cells)
        for p in range(5):
            run = [(3 + q) % 5 for q in range(p, 5)]
            w = np.diff(cells)
            expected = np.floor(w * (1 - np.exp(-z[run].sum(0) / w)) + 0.5)
            assert (gm.run_nonzero_cols(5, cells, [3, 3])[p]
                    == expected).all()

    def test_uniform_mode_partitions_nnz(self):
        gm = GraphModel.uniform(1000, 12345)
        assert not gm.exact
        bounds = np.array([0, 300, 1000])
        cells = gm.cell_nnz(5, bounds)
        assert cells.sum() == pytest.approx(12345)

    def test_coerce_accepts_published_name(self):
        gm = GraphModel.coerce("reddit")
        assert gm.n == 232965
        assert not gm.exact
        assert gm.features and gm.n_classes

    def test_coerce_rejects_garbage(self):
        with pytest.raises(TypeError, match="GraphModel"):
            GraphModel.coerce(3.14)

    def test_nonzero_rows_oracle_exact(self, dataset, graph):
        dense = dataset.adjacency.to_dense()
        bounds = block_ranges(graph.n, 4)
        expect = [
            int(np.count_nonzero(dense[:, lo:hi].any(axis=1)))
            for lo, hi in bounds
        ]
        got = graph.col_block_nonzero_rows(4)
        assert list(got) == expect


class TestMachines:
    def test_presets_registered(self):
        assert set(list_machines()) == {"summit", "cori-gpu", "ethernet"}
        for name in list_machines():
            assert get_machine(name).name == name

    def test_get_machine_accepts_profile(self):
        prof = get_machine("ethernet")
        assert get_machine(prof) is prof

    def test_default_is_summit(self):
        assert get_machine(None).name == "summit"

    def test_congestion_grows_with_span(self):
        eth = get_machine("ethernet")
        assert eth.congestion_per_doubling > 0
        b64 = eth.beta_effective(64)
        b4096 = eth.beta_effective(4096)
        assert b4096 > b64 > eth.beta_for_span(64)

    def test_summit_has_no_congestion(self):
        summit = get_machine("summit")
        for span in (2, 6, 64, 16384):
            assert summit.beta_effective(span) == summit.beta_for_span(span)

    def test_machines_rank_a_bandwidth_bound_epoch(self):
        """Slower networks predict slower epochs, same schedule."""
        gm = GraphModel.uniform(1 << 16, 1 << 20, features=64, n_classes=8)
        secs = {
            m: predict_epoch("1d", gm, 256, machine=m).seconds
            for m in ("summit", "cori-gpu", "ethernet")
        }
        assert secs["summit"] < secs["cori-gpu"] < secs["ethernet"]


class TestSweep:
    def test_full_grid_under_ten_seconds_with_valid_json(self):
        """The ISSUE 2 acceptance sweep: 4 algorithms x 3 machines x P up
        to 16384, in seconds, emitting valid JSON."""
        gm = GraphModel.from_published("reddit")
        t0 = time.perf_counter()
        result = sweep(gm)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        assert max(result.ps) >= 16384
        assert set(result.machines) == {"summit", "cori-gpu", "ethernet"}
        assert set(result.algorithms) == set(ALGORITHMS)
        doc = json.loads(result.to_json())
        assert doc["schema"] == "repro-sweep/1"
        assert len(doc["points"]) == len(result.points)
        assert doc["winners"]
        # Every swept (machine, P) has a winner for the one graph.
        winners = result.winners()
        for machine in result.machines:
            for p in result.ps:
                assert ("reddit", machine, p) in winners

    def test_invalid_p_skipped_not_snapped(self):
        gm = GraphModel.uniform(4096, 65536, features=32, n_classes=4)
        result = sweep(gm, ps=(8, 9), machines=("summit",))
        by_algo = {}
        for pt in result.points:
            by_algo.setdefault(pt.algorithm, set()).add(pt.p)
        assert by_algo["1d"] == {8, 9}
        assert by_algo["2d"] == {9}       # 8 is not a square
        assert by_algo["3d"] == {8}       # 9 is not a cube

    def test_default_p_grid_realises_all_meshes(self):
        assert any(supports_p("3d", p) for p in DEFAULT_P_GRID)
        assert all(supports_p("2d", p) for p in DEFAULT_P_GRID)

    def test_15d_default_replication_divides_p(self):
        for p in DEFAULT_P_GRID:
            c = default_algo_kwargs("1.5d", p)["replication"]
            assert p % c == 0
            assert 1 <= c <= max(1, int(np.sqrt(p / 2)) + 1)

    def test_series_are_monotone_in_p_for_volume(self):
        """Per-epoch per-rank work shrinks with P; total seconds fall
        until latency dominates -- check the curve is returned sorted."""
        gm = GraphModel.from_published("reddit")
        result = sweep(gm, algorithms=("2d",), machines=("summit",),
                       ps=(16, 64, 256))
        series = result.series("reddit", "summit", "2d")
        assert [p for p, _ in series] == [16, 64, 256]

    def test_predict_rejects_invalid_mesh(self, graph):
        with pytest.raises(ValueError, match="mesh"):
            predict_epoch("2d", graph, 8, hidden=8)

    def test_predict_requires_widths_for_bare_shapes(self):
        gm = GraphModel.uniform(1024, 8192)
        with pytest.raises(ValueError, match="widths"):
            predict_epoch("1d", gm, 4)
        point = predict_epoch("1d", gm, 4, widths=(16, 8, 4))
        assert point.seconds > 0


class TestScalingAnalysis:
    def test_crossover_and_table(self):
        from repro.analysis.scaling import (
            crossover_points,
            format_crossovers,
            format_scaling_table,
        )

        gm = GraphModel.from_published("reddit")
        result = sweep(gm, machines=("summit",), ps=(4, 16, 64, 256))
        table = format_scaling_table(result, "reddit", "summit")
        assert "winner" in table and "256" in table
        crossings = crossover_points(result)
        text = format_crossovers(result)
        if crossings:
            assert crossings[0].winner in ALGORITHMS
            assert "->" in text
        else:
            assert "no winner crossovers" in text


class TestSweepGridKwargs:
    def test_sweep_honours_explicit_rectangular_grid(self):
        """A per-algorithm grid kwarg lifts the square-P constraint the
        same way predict_epoch's does."""
        gm = GraphModel.uniform(4096, 65536, features=32, n_classes=4)
        result = sweep(
            gm, algorithms=("2d",), ps=(8, 9), machines=("summit",),
            algo_kwargs={"2d": {"grid": (2, 4)}},
        )
        assert [pt.p for pt in result.points] == [8]  # grid tiles 8, not 9

    def test_sweep_accepts_bare_csr_matrix(self, dataset):
        result = sweep(dataset.adjacency, algorithms=("1d",), ps=(4,),
                       machines=("summit",), widths=(12, 8, 3))
        assert len(result.points) == 1

    def test_sweep_skips_p_where_fixed_replication_cannot_tile(self):
        gm = GraphModel.uniform(4096, 65536, features=32, n_classes=4)
        result = sweep(
            gm, algorithms=("1.5d",), ps=(4, 16), machines=("summit",),
            algo_kwargs={"1.5d": {"replication": 8}},
        )
        assert [pt.p for pt in result.points] == [16]
