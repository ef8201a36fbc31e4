import hashlib
import os
import pickle
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import FrozenInstanceError
from pathlib import Path
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
    Network,
    _bfs_blocks,
    generate_erdos_renyi,
    load_adjacency,
    mobility_edges,
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


from oracles import (
    _distance_dtype,
    adjacency,
    bfs_distances,
    erdos_renyi_by_rows,
    hop_distances,
    is_interchangeable,
    mobility_matrix,
    relaxation_distances,
    relaxation_distances_by_triples,
)

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


def malloc_growth(body):
    """Run ``body`` in a fresh interpreter, where ``in_use()`` gives glibc's
    in-use heap bytes (``mallinfo2().uordblks``), and return the int it
    prints; skip where glibc has no ``mallinfo2``."""
    prelude = """if True:
        import ctypes
        libc = ctypes.CDLL(None)
        if not hasattr(libc, "mallinfo2"):
            print("skip")
            raise SystemExit
        names = ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks",
                 "keepcost")
        class Mallinfo2(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in names]
        libc.mallinfo2.restype = Mallinfo2
        def in_use():
            return libc.mallinfo2().uordblks
    """
    code = prelude + textwrap.indent(textwrap.dedent(body), " " * 8)
    src = str(Path(network.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "skip":
        pytest.skip("glibc mallinfo2 is not available")
    return int(proc.stdout)


class TestStorage:
    """Each N x N array is kept in the narrowest dtype that holds it."""

    @pytest.mark.parametrize("dtype", [bool, int, np.int8, float])
    def test_adjacency_is_bool(self, dtype):
        adj = np.zeros((3, 3), dtype=dtype)
        adj[0, 1] = adj[1, 0] = 1
        net = Network(adj)
        assert adjacency(net).dtype == bool
        assert adjacency(net).tolist() == [[False, True, False], [True, False, False], [False] * 3]
        degrees = net.degrees()
        assert degrees.dtype.kind == "i" and degrees.tolist() == [1, 1, 0]

    def test_hop_distances_are_int16(self):
        # int8 holds every hop count below 128; a path of 129 nodes has one
        # of 128, so its distances widen to int16.
        assert hop_distances(path_graph(4)).dtype == np.int8
        assert hop_distances(path_graph(128)).dtype == np.int8
        assert hop_distances(path_graph(129)).dtype == np.int16

    def test_sparse_random_network_distances_are_int8(self):
        # The N=1000 benchmark's network: its diameter is far below 128.
        assert hop_distances(generate_erdos_renyi(1000, 2.0, seed=1)).dtype == np.int8

    def test_distance_dtype_follows_node_count(self):
        # A hop count is at most N - 1, so int16 holds every one up to N = 32768.
        assert _distance_dtype(1) == np.int16
        assert _distance_dtype(32768) == np.int16
        assert _distance_dtype(32769) == np.int32

    def test_hop_distances_fill_the_wider_dtype(self, monkeypatch):
        # A 129-node path (the shortest that widens) labelled from the middle
        # out, in blocks of 8 sources: the early blocks fill int8 rows, and
        # the first block to reach hop 128 (one of the last two) widens the
        # result with those rows kept.
        n = 129
        order = np.argsort(np.abs(np.arange(n) - (n - 1) / 2), kind="stable")
        adj = adjacency(path_graph(n))[np.ix_(order, order)]
        monkeypatch.setattr(network, "_BFS_BLOCK_PAIRS", 8 * n)
        d = hop_distances(Network(adj))
        assert d.dtype == np.int16
        assert np.array_equal(d, relaxation_distances(adj))

    def test_hop_distances_are_read_only(self):
        d = hop_distances(path_graph(4))
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0, 0] = 1

    def test_memory_budget(self):
        # tracemalloc sees numpy's allocations. An N x N int64 temporary
        # (8 bytes per entry) on any of these paths breaks its budget. Mean
        # degree 2 as in the acceptance ensembles.
        n = 600
        bfs_pass(generate_erdos_renyi(10, 2.0, seed=0))  # first-call imports
        tracemalloc.start()
        try:
            net = generate_erdos_renyi(n, 2.0, seed=1)
            generate_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            bfs_pass(net)
            bfs_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert generate_peak <= 4 * n * n
        assert bfs_peak <= 7 * n * n

    def test_bfs_memory_budget_dense_network(self):
        # A level gathers the frontier words of every edge; the BFS gathers
        # them in node ranges of bounded edge count, so its peak stays
        # within the degree-2 budget at mean degree 20, N/2 and N - 1, where
        # N(N - 1) edges in one gather would not.
        n = 600
        bfs_pass(generate_erdos_renyi(10, 2.0, seed=0))  # first-call imports
        for mean_degree in (20.0, n / 2, n - 1.0):
            net = generate_erdos_renyi(n, mean_degree, seed=1)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                bfs_pass(net)
                bfs_peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert bfs_peak <= 7 * n * n, mean_degree


def bfs_pass(net):
    """One whole pass of the breadth-first blocks, each read and dropped, as
    the profiler reads them."""
    for _, rows in _bfs_blocks(net):
        rows.max()


class TestCsrNetwork:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_views_match_the_dense_formulas(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30), label="n")
        upper = np.triu(np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n), 1)
        a = (upper | upper.T).astype(data.draw(st.sampled_from([bool, int, float]), label="dtype"))
        net = Network(a)
        assert adjacency(net).dtype == bool
        assert np.array_equal(adjacency(net), a)
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
        net = Network(adjacency(net), labels=[f"r{i}" for i in range(50)])
        copy = pickle.loads(pickle.dumps(net))
        assert copy.labels == net.labels
        assert np.array_equal(adjacency(copy), adjacency(net))
        for name in ("indptr", "indices"):
            assert np.array_equal(getattr(copy, name), getattr(net, name))
            assert not getattr(copy, name).flags.writeable

    def test_attributes_cannot_be_set(self):
        net = path_graph(3)
        for name in ("indptr", "indices", "labels"):
            with pytest.raises(FrozenInstanceError):
                setattr(net, name, None)

    def test_arrays_are_read_only(self):
        net = path_graph(3)
        for arr in (net.indptr, net.indices):
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
        assert np.array_equal(adjacency(a), adjacency(b))

    def test_different_seeds_differ(self):
        a = generate_erdos_renyi(30, 3.0, seed=1)
        b = generate_erdos_renyi(30, 3.0, seed=2)
        assert not np.array_equal(adjacency(a), adjacency(b))

    def test_two_nodes_unit_mean_degree_forces_edge(self):
        for seed in range(10):
            net = generate_erdos_renyi(2, 1.0, seed=seed)
            assert adjacency(net)[0, 1] == 1

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
            adj = adjacency(net)
            assert np.array_equal(adj, adj.T)
            assert np.diagonal(adj).sum() == 0

    @pytest.mark.parametrize("n,k", [(2, 1.0), (25, 3.0), (60, 30.0), (300, 2.0)])
    def test_neighbour_list_passes_validation_unchanged(self, n, k):
        # The generator builds its neighbour list without Network's checks.
        for seed in range(5):
            net = generate_erdos_renyi(n, k, seed=seed)
            checked = Network(adjacency(net))
            assert np.array_equal(checked.indptr, net.indptr)
            assert np.array_equal(checked.indices, net.indices)
            assert checked.labels == net.labels

    @pytest.mark.parametrize("n,k", [(1, 0.5), (0, 1.0), (10, 0.0), (10, 10.0), (10, -1.0), (10, 9.5), (2, 1.5)])
    def test_parameter_errors(self, n, k):
        with pytest.raises(ValueError):
            generate_erdos_renyi(n, k, seed=0)

    def test_mean_degree_n_minus_1_gives_the_complete_graph(self):
        net = generate_erdos_renyi(10, 9.0, seed=0)
        assert np.array_equal(net.degrees(), np.full(10, 9))

    # N=182 has 16,471 pairs, so its draw crosses one boundary of the 2^14-uniform chunks.
    @pytest.mark.parametrize("n,k", [(n, k) for n in (2, 3, 182, 300, 1000, 2000) for k in (1, 2, n / 2) if k <= n - 1])
    @pytest.mark.parametrize("seed", [0, 7, (1, 0, 0), (3, 5, 2)], ids=repr)
    def test_chunked_draw_matches_the_draw_by_rows(self, n, k, seed):
        net, want = generate_erdos_renyi(n, k, seed=seed), erdos_renyi_by_rows(n, k, seed)
        for got, expected in ((net.indptr, want.indptr), (net.indices, want.indices)):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    def test_draw_leaves_little_malloc_memory_in_use(self):
        # numpy keeps freed buffers below 1 KiB for reuse, which tracemalloc
        # does not see; glibc's in-use byte count does. A draw that makes a
        # buffer of each of many sizes leaves hundreds of KiB in that cache.
        grown = malloc_growth("""
            from epiprofiler.network import generate_erdos_renyi
            generate_erdos_renyi(2, 1.0, seed=0)  # first-call imports
            before = in_use()
            net = generate_erdos_renyi(1000, 2.0, seed=(1, 0, 0))
            print(in_use() - before)
        """)
        assert grown < 128 * 1024


class TestHopDistances:
    def test_path_graph(self):
        d = hop_distances(path_graph(3))
        assert np.array_equal(d, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_isolated_node_unreachable(self):
        adj = np.zeros((4, 4), dtype=int)
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
        d = hop_distances(Network(adj))
        assert d[0, 3] == UNREACHABLE
        assert d[3, 0] == UNREACHABLE
        assert d[3, 3] == 0

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_relaxation_oracle(self, seed):
        rng = np.random.default_rng((7, seed))
        n = int(rng.integers(2, 21))
        k = float(rng.uniform(0.5, min(n - 1, 4)))
        net = generate_erdos_renyi(n, k, seed=(8, seed))
        expected = relaxation_distances(adjacency(net))
        assert np.array_equal(hop_distances(net), expected)
        assert np.array_equal(bfs_distances(net), expected)

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
        assert np.array_equal(hop_distances(Network(adj)), relaxation_distances(adj))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 20), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_relaxation_oracle_matches_its_triple_loop(self, n, density, seed):
        # The relaxation oracle above relaxes the whole matrix through one
        # middle node at a time; the scalar triple loop checks it, from
        # empty graphs to complete ones.
        upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
        adj = (upper | upper.T).astype(int)
        assert np.array_equal(relaxation_distances(adj), relaxation_distances_by_triples(adj))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_relaxation_oracle_in_blocks_of_any_width(self, data):
        # Blocks of one source, of one 64-bit word less one bit, exactly one
        # word, one word and a bit, and over two words, on one or two blocks;
        # node ranges down to a single node. Isolated nodes inside the node
        # order and at its end, where reduceat has no edge row of their own.
        sources = data.draw(st.sampled_from([1, 63, 64, 65, 130]), label="sources")
        n = data.draw(st.integers(sources, sources + 8) if sources > 1 else st.integers(1, 30), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        upper = np.triu(rng.random((n, n)) < data.draw(st.floats(0.2, 4.0), label="mean_degree") / n, 1)
        adj = (upper | upper.T).astype(int)
        isolated = data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="isolated")
        isolated += range(n - data.draw(st.integers(0, min(n, 3)), label="trailing"), n)
        adj[isolated] = 0
        adj[:, isolated] = 0
        edges = data.draw(st.sampled_from([1, 2, 7, network._BFS_RANGE_EDGES]), label="range_edges")
        with mock.patch.object(network, "_BFS_BLOCK_PAIRS", sources * n), \
                mock.patch.object(network, "_BFS_RANGE_EDGES", edges):
            assert np.array_equal(hop_distances(Network(adj)), relaxation_distances(adj))

    @pytest.mark.parametrize("n,mean_degree", [(300, 0.8), (300, 2.0), (300, 8.0), (1000, 2.0)])
    def test_matches_bfs_oracle_on_random_networks(self, n, mean_degree):
        # Sizes the O(N^3) relaxation oracle cannot reach; mean degree 0.8
        # leaves many small components and isolated nodes.
        net = generate_erdos_renyi(n, mean_degree, seed=(11, n, 0))
        assert np.array_equal(hop_distances(net), bfs_distances(net))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 70),
        mean_degree=st.sampled_from([0.5, 2.0]),
        sources=st.sampled_from([1, 3, 64, 1 << 15]),
        data=st.data(),
    )
    def test_blocks_from_any_first_source_hold_the_same_rows(self, n, mean_degree, sources, data):
        # Blocks of `sources` rows, so `first` falls in the first, a middle
        # or the last block: its block comes first, then the others in source
        # order, and every row is the one the oracle gives.
        net = generate_erdos_renyi(n, min(mean_degree, n - 1.0), seed=n)
        first = data.draw(st.integers(0, n - 1), label="first")
        with mock.patch.object(network, "_BFS_BLOCK_PAIRS", sources * n):
            starts = [lo for lo, _ in _bfs_blocks(net)]
            blocks = [(lo, rows.copy()) for lo, rows in _bfs_blocks(net, first)]
        head, rows = blocks[0]
        assert head <= first < head + rows.shape[0]
        assert [lo for lo, _ in blocks] == [head] + [lo for lo in starts if lo != head]
        d = np.full((n, n), n)
        for lo, rows in blocks:
            d[lo : lo + rows.shape[0]] = rows
        assert np.array_equal(d, bfs_distances(net))

    def test_bfs_leaves_no_more_malloc_memory_in_use_per_network(self):
        # numpy's cache of freed small buffers (see the draw's test above)
        # keeps one set per byte size. Every BFS array has one shape per
        # call, so after two networks, ten more leave no more of it in use;
        # level arrays of a new size at nearly every level grew it by about
        # 242 KiB over these ten.
        grown = malloc_growth("""
            from epiprofiler.network import _bfs_blocks, generate_erdos_renyi
            nets = [generate_erdos_renyi(1000, 2.0, seed=(s, 0, 0)) for s in range(12)]
            def bfs(net):
                for _ in _bfs_blocks(net):
                    pass
            for net in nets[:2]:
                bfs(net)
            before = in_use()
            for net in nets[2:]:
                bfs(net)
            print(in_use() - before)
        """)
        assert grown < 64 * 1024

    def test_adjacent_iff_distance_one(self):
        net = generate_erdos_renyi(40, 3.0, seed=3)
        d = hop_distances(net)
        assert np.array_equal(d == 1, adjacency(net) == 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry_and_triangle_inequality(self, seed):
        net = generate_erdos_renyi(15, 2.5, seed=(21, seed))
        d = hop_distances(net)
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
        g = mobility_matrix(path_graph(3), gamma=0.2)
        expected = np.array([[0.0, 0.2, 0.0], [0.1, 0.0, 0.1], [0.0, 0.2, 0.0]])
        np.testing.assert_allclose(g, expected, rtol=1e-15)

    def test_star_hand_values(self):
        # center with 4 leaves: each center->leaf rate is gamma/4
        g = mobility_matrix(star_graph(4), gamma=0.2)
        np.testing.assert_allclose(g[0, 1:], 0.05, rtol=1e-15)
        np.testing.assert_allclose(g[1:, 0], 0.2, rtol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_row_sums_equal_gamma(self, seed):
        net = generate_erdos_renyi(30, 2.0, seed=(5, seed))
        gamma = 0.37
        g = mobility_matrix(net, gamma)
        sums = g.sum(axis=1)
        degrees = net.degrees()
        np.testing.assert_allclose(sums[degrees > 0], gamma, rtol=1e-12)
        assert np.all(sums[degrees == 0] == 0.0)

    def test_positive_only_on_links(self):
        net = generate_erdos_renyi(20, 2.5, seed=9)
        g = mobility_matrix(net, 0.2)
        assert np.all((g > 0) == (adjacency(net) == 1))

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            mobility_matrix(path_graph(3), 0.0)


class TestPermutationEquivariance:
    @pytest.mark.parametrize("seed", range(10))
    def test_distance_and_mobility_conjugate(self, seed):
        rng = np.random.default_rng((11, seed))
        net = generate_erdos_renyi(12, 2.5, seed=(12, seed))
        perm = rng.permutation(12)
        relabeled = Network(adjacency(net)[np.ix_(perm, perm)])
        d = hop_distances(net)
        d_rel = hop_distances(relabeled)
        assert np.array_equal(d_rel, d[np.ix_(perm, perm)])
        g = mobility_matrix(net, 0.2)
        g_rel = mobility_matrix(relabeled, 0.2)
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
        assert np.array_equal(adjacency(loaded), adjacency(net))
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
