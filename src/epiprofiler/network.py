"""Transport-network substrate: graph type, random generation, hop distances,
and the degree-weighted mobility law used by the simulator."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Sequence

import numpy as np

UNREACHABLE = -1  # hop-distance sentinel; never a large stand-in integer


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, init=False, eq=False)
class Network:
    """Undirected transport network over region nodes.

    ``Network(adjacency, labels=None)`` takes a square adjacency matrix with
    entries in {0, 1}, symmetric and zero on the diagonal. The network is
    kept as a read-only CSR neighbour list: node i's neighbours, ascending,
    are ``indices[indptr[i]:indptr[i + 1]]``. Labels default to
    "n0".."n{N-1}". Instances are immutable and safe to share across
    workers.
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: tuple[str, ...]

    def __init__(self, adjacency, labels=None):
        adj = np.asarray(adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] < 1:
            raise ValueError("network needs at least one node")
        self._set(*_validated_csr(adj), labels)

    @classmethod
    def _from_csr(cls, indptr: np.ndarray, indices: np.ndarray) -> "Network":
        """The network with this neighbour list and default labels. The list
        is not validated: the caller builds it symmetric, loop-free and
        sorted within each row."""
        net = object.__new__(cls)
        net._set(indptr, indices, None)
        return net

    def _set(self, indptr: np.ndarray, indices: np.ndarray, labels) -> None:
        n = indptr.shape[0] - 1
        if labels is None:
            labels = tuple(f"n{i}" for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
            if len(set(labels)) != n:
                raise ValueError("node labels must be unique")
        object.__setattr__(self, "indptr", _readonly(indptr))
        object.__setattr__(self, "indices", _readonly(indices))
        object.__setattr__(self, "labels", labels)

    def __setstate__(self, state):
        # Unpickled arrays come back writable.
        for name, value in state.items():
            object.__setattr__(self, name, _readonly(value) if isinstance(value, np.ndarray) else value)

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def adjacency(self) -> np.ndarray:
        """The dense read-only bool adjacency matrix, built on each access."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[np.repeat(np.arange(self.n), self.degrees()), self.indices] = True
        return _readonly(adj)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def _validated_csr(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of a square adjacency matrix, after checking
    the 0/1, diagonal and symmetry rules in that order; each error names the
    rule's first offending cell in row-major order. The rules are checked
    over blocks of rows of ``_BFS_BLOCK_PAIRS`` cells, so no N x N temporary
    is made."""
    n = adj.shape[0]
    block = max(1, _BFS_BLOCK_PAIRS // n)
    loop = asym = None  # first violation of each later rule, if any
    counts, indices = [], []
    for lo in range(0, n, block):
        rows = adj[lo : lo + block]
        if adj.dtype != bool:
            bad = np.argwhere((rows != 0) & (rows != 1))
            if bad.size:
                i, j = bad[0]
                i += lo
                raise ValueError(f"adjacency[{i}][{j}] = {adj[i, j]!r} is not 0 or 1")
        r, c = np.nonzero(rows)
        counts.append(np.bincount(r, minlength=rows.shape[0]))
        indices.append(c)
        r += lo
        if loop is None:
            diag = np.flatnonzero(r == c)
            if diag.size:
                loop = r[diag[0]]
        # A set cell whose mirror is 0: both cells break symmetry, and the
        # earlier one in row-major order may lie in an earlier block.
        lone = adj[c, r] == 0
        if lone.any():
            first = int(np.minimum(r[lone] * n + c[lone], c[lone] * n + r[lone]).min())
            asym = first if asym is None else min(asym, first)
    if loop is not None:
        raise ValueError(f"adjacency[{loop}][{loop}] must be 0 (no self-loops)")
    if asym is not None:
        i, j = divmod(asym, n)
        raise ValueError(
            f"adjacency must be symmetric: adjacency[{i}][{j}]={adj[i, j] != 0:d} "
            f"but adjacency[{j}][{i}]={adj[j, i] != 0:d}"
        )
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return indptr, np.concatenate(indices)


def _distance_dtype(n: int) -> np.dtype:
    """Narrowest hop-count dtype for N nodes: a hop count is at most N - 1."""
    return np.dtype(np.int16 if n <= np.iinfo(np.int16).max + 1 else np.int32)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs hop counts; disconnected pairs hold UNREACHABLE.

    Stored read-only in the narrowest dtype that holds any hop count on N
    nodes: int16 up to N = 32768, int32 above (a hop count is at most
    N - 1). Other integer input is narrowed after checking that every value
    survives the cast.
    """

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        dtype = _distance_dtype(d.shape[0])
        if d.dtype != dtype:
            if not np.issubdtype(d.dtype, np.integer):
                raise ValueError(f"distance matrix must hold integers, got dtype {d.dtype}")
            narrow = d.astype(dtype)
            bad = np.argwhere(narrow != d)
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"distance d[{i}][{j}] = {d[i, j]} does not fit in {dtype}")
            d = narrow
        object.__setattr__(self, "d", _readonly(d))

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True, eq=False)
class MobilityMatrix:
    """Per-link travel rates (1/time); row sums equal the total mobility rate
    for every node with at least one neighbor, and are zero for isolated nodes."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"mobility matrix must be square, got shape {g.shape}")
        object.__setattr__(self, "g", _readonly(g))

    @property
    def n(self) -> int:
        return self.g.shape[0]


def generate_erdos_renyi(n: int, mean_degree: float, seed) -> Network:
    """Draw a G(n, p) random network with p = mean_degree / (n - 1).

    Each unordered node pair is linked independently; the draw is
    deterministic for a fixed seed. Disconnected results are kept as-is.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"node count must be an integer >= 2, got {n!r}")
    if not 0 < mean_degree < n:
        raise ValueError(f"mean_degree must lie in (0, {n}), got {mean_degree!r}")
    p = mean_degree / (n - 1)
    rng = np.random.default_rng(seed)
    # Pairs (i, j > i) in row-major order, one row of uniforms at a time:
    # the same stream as one draw over the whole upper triangle, without
    # its n^2/2-sized index and uniform arrays or any N x N matrix.
    upper = [np.flatnonzero(rng.random(n - 1 - i) < p) + (i + 1) for i in range(n - 1)]
    src = np.repeat(np.arange(n - 1), [links.size for links in upper])
    dst = np.concatenate(upper)
    # Each link in both directions, sorted by node, then by neighbour.
    rows, cols = np.concatenate([src, dst]), np.concatenate([dst, src])
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Network._from_csr(indptr, cols[np.lexsort((cols, rows))])


# Sources x nodes covered by one BFS block, which bounds the (source, node)
# pairs a frontier can hold; also the cells of one block of adjacency rows
# that Network validates at a time.
_BFS_BLOCK_PAIRS = 1 << 15
# (source, neighbor) keys one expansion step makes at most (more only when a
# single node has more neighbors), which bounds a level's scratch however
# dense the network is.
_BFS_CHUNK_KEYS = 1 << 13


def hop_distances(net: Network) -> DistanceMatrix:
    """Breadth-first all-pairs shortest hop counts.

    A level-synchronous BFS over the CSR neighbour list runs from a block of
    sources at once; a frontier is a list of (source, node) pairs, so each
    level costs time proportional to the edges it expands. A level is
    expanded in chunks of at most ``_BFS_CHUNK_KEYS`` (source, neighbor)
    keys. Each block runs in an int32 scratch, whose rows are then copied
    into the narrower result.
    """
    n = net.n
    degree = net.degrees()
    first_edge = net.indptr[:-1]
    dst = net.indices
    d = np.empty((n, n), dtype=_distance_dtype(n))
    block = max(1, min(n, _BFS_BLOCK_PAIRS // n))
    scratch = np.empty((block, n), dtype=np.int32)
    for lo in range(0, n, block):
        rows = scratch[: min(block, n - lo)]
        rows.fill(UNREACHABLE)
        flat = rows.reshape(-1)  # view; key b * n + v is rows[b, v]
        frontier = np.arange(rows.shape[0]) * (n + 1) + lo
        flat[frontier] = 0
        level = 0
        while frontier.size:
            level += 1
            ends = degree[frontier % n]
            np.cumsum(ends, out=ends)  # keys made up to and with each entry
            found = []
            start = 0
            while start < frontier.size:
                done = int(ends[start - 1]) if start else 0
                stop = int(np.searchsorted(ends, done + _BFS_CHUNK_KEYS, side="right"))
                stop = max(stop, start + 1)
                owner, node = np.divmod(frontier[start:stop], n)
                counts = degree[node]
                # Key of every (source, neighbor) pair this chunk reaches.
                edge = np.repeat(first_edge[node] - (ends[start:stop] - counts - done), counts)
                edge += np.arange(edge.size)
                keys = np.repeat(owner * n, counts)
                keys += dst[edge]
                del edge
                # Keys set to this level by an earlier chunk fail this filter.
                keys = keys[flat[keys] == UNREACHABLE]
                # Keep one copy of each key: scatter distinct stamps, then keep
                # the entry whose stamp survived. A chunk has at most
                # max(_BFS_CHUNK_KEYS, largest degree) stamps, so they fit
                # the int32 scratch but not always the int16 result.
                stamps = UNREACHABLE - 1 - np.arange(keys.size)
                flat[keys] = stamps
                keys = keys[flat[keys] == stamps]
                flat[keys] = level
                found.append(keys)
                start = stop
            del ends
            frontier = np.concatenate(found)
        d[lo : lo + rows.shape[0]] = rows
    return DistanceMatrix(d)


def mobility_edges(net: Network, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-link travel rates as a directed edge list ``(src, dst, rate)``.

    The rate from node i to neighbor j is proportional to sqrt(k_i * k_j),
    scaled so the rates leaving each non-isolated node sum to gamma. Edges
    come in row-major order (by source, then destination); isolated nodes
    have none.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    k = net.degrees()
    src = np.repeat(np.arange(net.n), k)
    dst = net.indices
    k = k.astype(float)
    w = np.sqrt(k[src] * k[dst])
    row_sums = np.bincount(src, weights=w, minlength=net.n)
    return src, dst, w * (gamma / row_sums[src])


def mobility_matrix(net: Network, gamma: float) -> MobilityMatrix:
    """Dense view of :func:`mobility_edges`: row i holds the rates from node
    i to its neighbors and is all zero for an isolated node."""
    src, dst, rate = mobility_edges(net, gamma)
    g = np.zeros((net.n, net.n))
    g[src, dst] = rate
    return MobilityMatrix(g)


def is_interchangeable(dist: DistanceMatrix, nodes: Sequence[int]) -> bool:
    """True when every permutation of the given nodes leaves the distance
    matrix unchanged, i.e. the nodes occupy interchangeable positions."""
    d = dist.d
    n = dist.n
    nodes = list(nodes)
    for perm in permutations(nodes):
        full = np.arange(n)
        full[nodes] = perm
        if not np.array_equal(d[np.ix_(full, full)], d):
            return False
    return True


def save_adjacency(net: Network, path) -> None:
    """Write the adjacency CSV: label row, then one row per node of
    label followed by the 0/1 entries."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(net.labels)
        for i, label in enumerate(net.labels):
            row = ["0"] * net.n
            for j in net.indices[net.indptr[i] : net.indptr[i + 1]]:
                row[j] = "1"
            writer.writerow([label] + row)


def load_adjacency(path) -> Network:
    """Load and validate an adjacency CSV written by :func:`save_adjacency`.

    Violations of the 0/1, symmetry, or zero-diagonal rules are hard errors
    naming the offending cell.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty adjacency file")
    labels = [c.strip() for c in rows[0]]
    n = len(labels)
    if len(rows) != n + 1:
        raise ValueError(f"{path}: expected {n} node rows after the label row, got {len(rows) - 1}")
    adj = np.zeros((n, n), dtype=bool)
    for i, row in enumerate(rows[1:]):
        if len(row) != n + 1:
            raise ValueError(f"{path}: row for {labels[i]!r} has {len(row)} cells, expected {n + 1}")
        if row[0].strip() != labels[i]:
            raise ValueError(f"{path}: row {i + 2} is labelled {row[0]!r}, expected {labels[i]!r}")
        for j, cell in enumerate(row[1:]):
            text = cell.strip()
            if text not in ("0", "1"):
                raise ValueError(f"{path}: cell ({labels[i]}, {labels[j]}) = {cell!r} is not 0 or 1")
            adj[i, j] = text == "1"
    try:
        return Network(adj, labels=labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
