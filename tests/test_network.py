import hashlib
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiprofiler import network
from epiprofiler.cli import main as cli_main
from epiprofiler.data_ingest import SARS_ADJACENCY_FILE, bundled_data_path
from epiprofiler.network import (
    UNREACHABLE,
    DistanceMatrix,
    Network,
    generate_erdos_renyi,
    hop_distances,
    is_interchangeable,
    load_adjacency,
    mobility_edges,
    mobility_matrix,
    save_adjacency,
)


def path_graph(n):
    adj = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1
    return Network(adj)


def star_graph(leaves):
    adj = np.zeros((leaves + 1, leaves + 1), dtype=int)
    adj[0, 1:] = 1
    adj[1:, 0] = 1
    return Network(adj)


from oracles import relaxation_distances

BLOCK_N = 400
# Planted faults: ((row, column), value) cells. The first row block holds
# rows 0..80 at N=400.
FAULTS = {
    "asym-first": [((2, 5), 1), ((5, 2), 0)],
    "two-first": [((10, 20), 2), ((20, 10), 2)],
    "loop-first": [((30, 30), 1)],
    "asym-later": [((350, 301), 1), ((301, 350), 0)],
    "asym-across": [((390, 5), 1), ((5, 390), 0)],
    "two-later": [((310, 390), 2), ((390, 310), 2)],
    "loop-later": [((320, 320), 1)],
}
ASYM_LATER = "adjacency must be symmetric: adjacency[301][350]=0 but adjacency[350][301]=1"
ASYM_FIRST = "adjacency must be symmetric: adjacency[2][5]=1 but adjacency[5][2]=0"
ASYM_ACROSS = "adjacency must be symmetric: adjacency[5][390]=0 but adjacency[390][5]=1"
TWO_LATER = "adjacency[310][390] = np.int64(2) is not 0 or 1"
TWO_FIRST = "adjacency[10][20] = np.int64(2) is not 0 or 1"
LOOP_LATER = "adjacency[320][320] must be 0 (no self-loops)"
LOOP_FIRST = "adjacency[30][30] must be 0 (no self-loops)"
BLOCK_CASES = [
    (int, ("asym-later",), ASYM_LATER),
    (int, ("two-later",), TWO_LATER),
    (int, ("loop-later",), LOOP_LATER),
    (int, ("asym-later", "two-later", "loop-later"), TWO_LATER),
    (int, ("asym-first",), ASYM_FIRST),
    (int, ("two-first",), TWO_FIRST),
    (int, ("loop-first",), LOOP_FIRST),
    (int, ("asym-first", "two-first", "loop-first"), TWO_FIRST),
    (int, ("asym-first", "loop-first", "two-later"), TWO_LATER),
    (int, ("asym-first", "loop-later"), LOOP_LATER),
    (int, ("asym-across",), ASYM_ACROSS),
    (float, ("asym-later", "loop-later", "two-later"), "adjacency[310][390] = np.float64(2.0) is not 0 or 1"),
    (bool, ("asym-first", "loop-later"), LOOP_LATER),
    (bool, ("asym-across", "asym-later"), ASYM_ACROSS),
]


def planted_adjacency(dtype, faults):
    rng = np.random.default_rng(5)
    upper = np.triu(rng.random((BLOCK_N, BLOCK_N)) < 0.01, 1)
    adj = (upper | upper.T).astype(dtype)
    for name in faults:
        for (i, j), value in FAULTS[name]:
            adj[i, j] = value
    return adj


class TestNetworkValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Network(np.zeros((2, 3)))

    def test_rejects_non_binary_entry(self):
        adj = np.zeros((2, 2))
        adj[0, 1] = adj[1, 0] = 2
        with pytest.raises(ValueError, match=r"adjacency\[0\]\[1\]"):
            Network(adj)

    @pytest.mark.parametrize("dtype,value", [(int, 2), (int, -1), (float, 2.0), (float, 0.5), (float, -1.0)])
    def test_rejects_non_binary_entry_naming_cell(self, dtype, value):
        adj = np.zeros((3, 3), dtype=dtype)
        adj[0, 1] = adj[1, 0] = 1
        adj[1, 2] = adj[2, 1] = value
        with pytest.raises(ValueError, match=r"adjacency\[1\]\[2\] = .* is not 0 or 1"):
            Network(adj)

    def test_asymmetric_bool_message_reads_0_and_1(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError) as exc:
            Network(adj)
        assert str(exc.value).endswith("adjacency[0][1]=1 but adjacency[1][0]=0")

    def test_rejects_self_loop(self):
        adj = np.zeros((2, 2), dtype=int)
        adj[0, 0] = 1
        with pytest.raises(ValueError, match="self-loops"):
            Network(adj)

    def test_rejects_asymmetry(self):
        adj = np.zeros((3, 3), dtype=int)
        adj[0, 1] = 1
        with pytest.raises(ValueError, match="symmetric"):
            Network(adj)

    def test_default_labels(self):
        net = path_graph(3)
        assert net.labels == ("n0", "n1", "n2")

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            Network(np.zeros((2, 2), dtype=int), labels=["a", "a"])

    def test_adjacency_is_immutable(self):
        net = path_graph(3)
        with pytest.raises(ValueError):
            net.adjacency[0, 1] = 0

    @pytest.mark.parametrize("dtype,faults,message", BLOCK_CASES)
    def test_row_block_validation_names_the_first_cell(self, dtype, faults, message):
        # Rules are checked in order (0/1, diagonal, symmetry) over the whole
        # matrix, so a rule's fault in a later row block outranks a lower
        # rule's fault in the first one. Messages were taken from the
        # whole-matrix validation this replaced.
        assert BLOCK_N // (network._BFS_BLOCK_PAIRS // BLOCK_N) >= 3  # spans >= 3 row blocks
        with pytest.raises(ValueError) as exc:
            Network(planted_adjacency(dtype, faults))
        assert str(exc.value) == message


class TestStorage:
    """Each N x N array is kept in the narrowest dtype that holds it."""

    @pytest.mark.parametrize("dtype", [bool, int, np.int8, float])
    def test_adjacency_is_bool(self, dtype):
        adj = np.zeros((3, 3), dtype=dtype)
        adj[0, 1] = adj[1, 0] = 1
        net = Network(adj)
        assert net.adjacency.dtype == bool
        assert net.adjacency.tolist() == [[False, True, False], [True, False, False], [False] * 3]
        degrees = net.degrees()
        assert degrees.dtype.kind == "i" and degrees.tolist() == [1, 1, 0]

    def test_loaded_and_generated_adjacency_is_bool(self):
        assert load_adjacency(bundled_data_path(SARS_ADJACENCY_FILE)).adjacency.dtype == bool
        assert generate_erdos_renyi(10, 2.0, seed=1).adjacency.dtype == bool

    def test_hop_distances_are_int16(self):
        assert hop_distances(path_graph(4)).d.dtype == np.int16

    def test_distance_dtype_follows_node_count(self):
        # A hop count is at most N - 1, so int16 holds every one up to N = 32768.
        assert network._distance_dtype(1) == np.int16
        assert network._distance_dtype(32768) == np.int16
        assert network._distance_dtype(32769) == np.int32

    def test_hop_distances_fill_the_wider_dtype(self):
        # The int32 result that N > 32768 gets, without an N x N array that size.
        with mock.patch.object(network, "_distance_dtype", lambda n: np.dtype(np.int32)):
            d = hop_distances(path_graph(4)).d
        assert d.dtype == np.int32
        assert np.array_equal(d, relaxation_distances(path_graph(4).adjacency))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
    def test_distance_matrix_narrows_integers(self, dtype):
        d = DistanceMatrix(np.array([[0, 1], [1, 0]], dtype=dtype)).d
        assert d.dtype == np.int16
        assert d.tolist() == [[0, 1], [1, 0]]

    def test_distance_matrix_keeps_negative_values(self):
        assert DistanceMatrix([[0, -1], [-5, 0]]).d.tolist() == [[0, -1], [-5, 0]]

    @pytest.mark.parametrize("dtype", [float, bool, object])
    def test_distance_matrix_rejects_non_integer_dtype(self, dtype):
        with pytest.raises(ValueError, match="integers"):
            DistanceMatrix(np.zeros((2, 2), dtype=dtype))

    @pytest.mark.parametrize(
        "dtype,value", [(np.int64, 2**31), (np.int64, -(2**31) - 1), (np.uint64, 2**32), (np.uint64, 2**63)]
    )
    def test_distance_matrix_rejects_values_int32_cannot_hold(self, dtype, value):
        d = np.zeros((3, 3), dtype=dtype)
        d[2, 1] = value
        with pytest.raises(ValueError, match=rf"d\[2\]\[1\] = {value} does not fit in int16"):
            DistanceMatrix(d)

    @pytest.mark.parametrize(
        "dtype,value", [(np.int32, 2**15), (np.int32, -(2**15) - 1), (np.int64, 40000), (np.uint16, 2**15)]
    )
    def test_distance_matrix_rejects_values_int16_cannot_hold(self, dtype, value):
        d = np.zeros((3, 3), dtype=dtype)
        d[2, 1] = value
        with pytest.raises(ValueError, match=rf"d\[2\]\[1\] = {value} does not fit in int16"):
            DistanceMatrix(d)

    def test_memory_budget(self):
        # tracemalloc sees numpy's allocations. An N x N int64 temporary
        # (8 bytes per entry) on any of these paths breaks its budget. Mean
        # degree 2 as in the acceptance ensembles.
        n = 600
        hop_distances(generate_erdos_renyi(10, 2.0, seed=0))  # first-call imports
        tracemalloc.start()
        try:
            net = generate_erdos_renyi(n, 2.0, seed=1)
            generate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            dist = hop_distances(net)
            bfs_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert net.adjacency.nbytes == n * n
        assert dist.d.nbytes == 2 * n * n
        assert generate_peak <= 4 * n * n
        assert bfs_peak <= 7 * n * n

    def test_bfs_memory_budget_dense_network(self):
        # At mean degree 20 a level reaches 20 keys per frontier entry; the
        # BFS expands them in bounded chunks, so its peak stays within the
        # degree-2 budget (the int16 result is 2 N^2 of it).
        n = 600
        hop_distances(generate_erdos_renyi(10, 2.0, seed=0))  # first-call imports
        net = generate_erdos_renyi(n, 20.0, seed=1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            hop_distances(net)
            bfs_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert bfs_peak <= 7 * n * n


class TestCsrNetwork:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_views_match_the_dense_formulas(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30), label="n")
        upper = np.triu(np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n), 1)
        a = (upper | upper.T).astype(data.draw(st.sampled_from([bool, int, float]), label="dtype"))
        net = Network(a)
        assert net.adjacency.dtype == bool
        assert np.array_equal(net.adjacency, a)
        k = a.sum(axis=1).astype(np.int64)
        assert np.array_equal(net.degrees(), k)
        if k.any():
            src, dst = np.nonzero(a)
            w = np.sqrt(k[src].astype(float) * k[dst])
            rate = w * (0.3 / np.bincount(src, weights=w, minlength=n)[src])
            got = mobility_edges(net, 0.3)
            for x, y in zip(got, (src, dst, rate)):
                assert np.array_equal(x, y)

    def test_pickle_round_trip(self):
        net = generate_erdos_renyi(50, 3.0, seed=4)
        net = Network(net.adjacency, labels=[f"r{i}" for i in range(50)])
        copy = pickle.loads(pickle.dumps(net))
        assert copy.labels == net.labels
        assert np.array_equal(copy.adjacency, net.adjacency)
        for name in ("indptr", "indices"):
            assert np.array_equal(getattr(copy, name), getattr(net, name))
            assert not getattr(copy, name).flags.writeable

    def test_attributes_cannot_be_set(self):
        net = path_graph(3)
        for name in ("indptr", "indices", "labels", "adjacency"):
            with pytest.raises(FrozenInstanceError):
                setattr(net, name, None)

    def test_arrays_are_read_only(self):
        net = path_graph(3)
        for arr in (net.indptr, net.indices, net.adjacency):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize(
        "nodes,digest",
        [
            (6, "ab0552137b8d09cb9f99681b0e70bc4098a87c092ea72afdce8eaf6a88024e52"),
            (300, "7da07e8978d313de81bde5703e2ce2c9902612a382f1aa0380f11d13650cd9a2"),
        ],
    )
    def test_gen_net_bytes_are_unchanged(self, tmp_path, nodes, digest):
        # Digests of the CSV written from the dense adjacency before the
        # network was kept as a neighbour list.
        out = tmp_path / "net.csv"
        args = ["gen-net", "--nodes", str(nodes), "--mean-degree", "2", "--seed", "3", "--out", str(out)]
        assert cli_main(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestErdosRenyi:
    def test_deterministic_for_fixed_seed(self):
        a = generate_erdos_renyi(10, 3.0, seed=42)
        b = generate_erdos_renyi(10, 3.0, seed=42)
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_different_seeds_differ(self):
        a = generate_erdos_renyi(30, 3.0, seed=1)
        b = generate_erdos_renyi(30, 3.0, seed=2)
        assert not np.array_equal(a.adjacency, b.adjacency)

    def test_two_nodes_unit_mean_degree_forces_edge(self):
        for seed in range(10):
            net = generate_erdos_renyi(2, 1.0, seed=seed)
            assert net.adjacency[0, 1] == 1

    def test_empirical_mean_degree(self):
        # 1000 draws at n=100, target mean degree 2.0
        total = 0.0
        for seed in range(1000):
            net = generate_erdos_renyi(100, 2.0, seed=(99, seed))
            total += net.degrees().mean()
        assert total / 1000 == pytest.approx(2.0, abs=0.1)

    def test_invariants_hold_on_random_draws(self):
        for seed in range(20):
            net = generate_erdos_renyi(25, 3.0, seed=seed)
            adj = net.adjacency
            assert np.array_equal(adj, adj.T)
            assert np.diagonal(adj).sum() == 0

    @pytest.mark.parametrize("n,k", [(2, 1.0), (25, 3.0), (60, 30.0), (300, 2.0)])
    def test_neighbour_list_passes_validation_unchanged(self, n, k):
        # The generator builds its neighbour list without Network's checks.
        for seed in range(5):
            net = generate_erdos_renyi(n, k, seed=seed)
            checked = Network(net.adjacency)
            assert np.array_equal(checked.indptr, net.indptr)
            assert np.array_equal(checked.indices, net.indices)
            assert checked.labels == net.labels

    @pytest.mark.parametrize("n,k", [(1, 0.5), (0, 1.0), (10, 0.0), (10, 10.0), (10, -1.0)])
    def test_parameter_errors(self, n, k):
        with pytest.raises(ValueError):
            generate_erdos_renyi(n, k, seed=0)


class TestHopDistances:
    def test_path_graph(self):
        d = hop_distances(path_graph(3)).d
        assert np.array_equal(d, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_isolated_node_unreachable(self):
        adj = np.zeros((4, 4), dtype=int)
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
        d = hop_distances(Network(adj)).d
        assert d[0, 3] == UNREACHABLE
        assert d[3, 0] == UNREACHABLE
        assert d[3, 3] == 0

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_relaxation_oracle(self, seed):
        rng = np.random.default_rng((7, seed))
        n = int(rng.integers(2, 21))
        k = float(rng.uniform(0.5, min(n - 1, 4)))
        net = generate_erdos_renyi(n, k, seed=(8, seed))
        assert np.array_equal(hop_distances(net).d, relaxation_distances(net.adjacency))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_relaxation_oracle_on_any_graph(self, data):
        # Arbitrary edge sets: disconnected graphs, isolated nodes and N=1.
        n = data.draw(st.integers(min_value=1, max_value=14), label="n")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges") if pairs else []
        adj = np.zeros((n, n), dtype=int)
        for i, j in edges:
            adj[i, j] = adj[j, i] = 1
        assert np.array_equal(hop_distances(Network(adj)).d, relaxation_distances(adj))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_relaxation_oracle_in_small_chunks(self, data):
        # Levels split into chunks of a few keys, down to one key per chunk.
        n = data.draw(st.integers(min_value=1, max_value=14), label="n")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges") if pairs else []
        chunk = data.draw(st.integers(min_value=1, max_value=8), label="chunk")
        adj = np.zeros((n, n), dtype=int)
        for i, j in edges:
            adj[i, j] = adj[j, i] = 1
        with mock.patch.object(network, "_BFS_CHUNK_KEYS", chunk):
            assert np.array_equal(hop_distances(Network(adj)).d, relaxation_distances(adj))

    def test_adjacent_iff_distance_one(self):
        net = generate_erdos_renyi(40, 3.0, seed=3)
        d = hop_distances(net).d
        assert np.array_equal(d == 1, net.adjacency == 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry_and_triangle_inequality(self, seed):
        net = generate_erdos_renyi(15, 2.5, seed=(21, seed))
        d = hop_distances(net).d
        assert np.array_equal(d, d.T)
        assert np.all(np.diagonal(d) == 0)
        n = net.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if d[i, k] >= 0 and d[k, j] >= 0:
                        assert d[i, j] >= 0  # reachable via k
                        assert d[i, j] <= d[i, k] + d[k, j]


class TestMobilityMatrix:
    def test_path_hand_values(self):
        g = mobility_matrix(path_graph(3), gamma=0.2).g
        expected = np.array([[0.0, 0.2, 0.0], [0.1, 0.0, 0.1], [0.0, 0.2, 0.0]])
        np.testing.assert_allclose(g, expected, rtol=1e-15)

    def test_star_hand_values(self):
        # center with 4 leaves: each center->leaf rate is gamma/4
        g = mobility_matrix(star_graph(4), gamma=0.2).g
        np.testing.assert_allclose(g[0, 1:], 0.05, rtol=1e-15)
        np.testing.assert_allclose(g[1:, 0], 0.2, rtol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_row_sums_equal_gamma(self, seed):
        net = generate_erdos_renyi(30, 2.0, seed=(5, seed))
        gamma = 0.37
        g = mobility_matrix(net, gamma).g
        sums = g.sum(axis=1)
        degrees = net.degrees()
        np.testing.assert_allclose(sums[degrees > 0], gamma, rtol=1e-12)
        assert np.all(sums[degrees == 0] == 0.0)

    def test_positive_only_on_links(self):
        net = generate_erdos_renyi(20, 2.5, seed=9)
        g = mobility_matrix(net, 0.2).g
        assert np.all((g > 0) == (net.adjacency == 1))

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            mobility_matrix(path_graph(3), 0.0)


class TestPermutationEquivariance:
    @pytest.mark.parametrize("seed", range(10))
    def test_distance_and_mobility_conjugate(self, seed):
        rng = np.random.default_rng((11, seed))
        net = generate_erdos_renyi(12, 2.5, seed=(12, seed))
        perm = rng.permutation(12)
        relabeled = Network(net.adjacency[np.ix_(perm, perm)])
        d = hop_distances(net).d
        d_rel = hop_distances(relabeled).d
        assert np.array_equal(d_rel, d[np.ix_(perm, perm)])
        g = mobility_matrix(net, 0.2).g
        g_rel = mobility_matrix(relabeled, 0.2).g
        np.testing.assert_allclose(g_rel, g[np.ix_(perm, perm)], rtol=1e-12)


class TestInterchangeable:
    def test_star_leaves_interchangeable(self):
        dist = hop_distances(star_graph(3))
        assert is_interchangeable(dist, [1, 2, 3])
        assert not is_interchangeable(dist, [0, 1])

    def test_path_ends_not_interchangeable_with_middle(self):
        dist = hop_distances(path_graph(3))
        assert is_interchangeable(dist, [0, 2])
        assert not is_interchangeable(dist, [0, 1])


class TestAdjacencyCsv:
    def test_round_trip(self, tmp_path):
        net = generate_erdos_renyi(9, 2.0, seed=13)
        path = tmp_path / "net.csv"
        save_adjacency(net, path)
        loaded = load_adjacency(path)
        assert np.array_equal(loaded.adjacency, net.adjacency)
        assert loaded.labels == net.labels

    def test_bundled_file_round_trips(self, tmp_path):
        # Cell for cell: entries are written as 0/1, never True/False. The
        # csv writer ends rows with \r\n where the bundled file has \n.
        bundled = bundled_data_path(SARS_ADJACENCY_FILE)
        path = tmp_path / "net.csv"
        save_adjacency(load_adjacency(bundled), path)
        assert path.read_bytes().splitlines() == bundled.read_bytes().splitlines()

    def test_load_rejects_bad_entry_naming_cell(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("a,b\na,0,2\nb,2,0\n")
        with pytest.raises(ValueError, match=r"\(a, b\)"):
            load_adjacency(path)

    def test_load_rejects_asymmetric(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("a,b,c\na,0,1,0\nb,0,0,1\nc,0,1,0\n")
        with pytest.raises(ValueError, match="symmetric"):
            load_adjacency(path)

    def test_load_rejects_self_loop(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("a,b\na,1,1\nb,1,0\n")
        with pytest.raises(ValueError, match="self-loops"):
            load_adjacency(path)

    def test_load_rejects_row_count_mismatch(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("a,b\na,0,1\n")
        with pytest.raises(ValueError, match="node rows"):
            load_adjacency(path)
