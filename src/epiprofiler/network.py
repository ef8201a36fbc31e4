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


@dataclass(frozen=True)
class Network:
    """Undirected transport network over region nodes.

    The adjacency matrix must be square with entries in {0, 1}, symmetric and
    zero on the diagonal; it is stored as a read-only bool copy. Labels
    default to "n0".."n{N-1}". Instances are immutable and safe to share
    across workers.
    """

    adjacency: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        adj = np.asarray(self.adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        n = adj.shape[0]
        if n < 1:
            raise ValueError("network needs at least one node")
        if adj.dtype != bool:
            bad = np.argwhere((adj != 0) & (adj != 1))
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"adjacency[{i}][{j}] = {adj[i, j]!r} is not 0 or 1")
        adj = adj.astype(bool)  # always a copy: 1 byte per entry
        diag = np.flatnonzero(np.diagonal(adj))
        if diag.size:
            i = diag[0]
            raise ValueError(f"adjacency[{i}][{i}] must be 0 (no self-loops)")
        asym = np.argwhere(adj != adj.T)
        if asym.size:
            i, j = asym[0]
            raise ValueError(
                f"adjacency must be symmetric: adjacency[{i}][{j}]={adj[i, j]:d} "
                f"but adjacency[{j}][{i}]={adj[j, i]:d}"
            )
        object.__setattr__(self, "adjacency", _readonly(adj))
        labels = self.labels
        if labels is None:
            labels = tuple(f"n{i}" for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
            if len(set(labels)) != n:
                raise ValueError("node labels must be unique")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop counts; disconnected pairs hold UNREACHABLE.

    Stored as read-only int32 (a hop count is at most N - 1). Other integer
    input is narrowed after checking that every value survives the cast.
    """

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        if d.dtype != np.int32:
            if not np.issubdtype(d.dtype, np.integer):
                raise ValueError(f"distance matrix must hold integers, got dtype {d.dtype}")
            narrow = d.astype(np.int32)
            bad = np.argwhere(narrow != d)
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"distance d[{i}][{j}] = {d[i, j]} does not fit in int32")
            d = narrow
        object.__setattr__(self, "d", _readonly(d))

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass(frozen=True)
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
    adj = np.zeros((n, n), dtype=bool)
    # Pairs (i, j > i) in row-major order, one row of uniforms at a time:
    # the same stream as one draw over the whole upper triangle, without
    # its n^2/2-sized index and uniform arrays.
    for i in range(n - 1):
        row = rng.random(n - 1 - i) < p
        adj[i, i + 1 :] = row
        adj[i + 1 :, i] = row
    return Network(adj)


# Sources x nodes covered by one BFS block, which bounds the (source, node)
# pairs a frontier can hold.
_BFS_BLOCK_PAIRS = 1 << 15
# (source, neighbor) keys one expansion step makes at most (more only when a
# single node has more neighbors), which bounds a level's scratch however
# dense the network is.
_BFS_CHUNK_KEYS = 1 << 13


def hop_distances(net: Network) -> DistanceMatrix:
    """Breadth-first all-pairs shortest hop counts.

    A level-synchronous BFS over the CSR edge list runs from a block of
    sources at once; a frontier is a list of (source, node) pairs, so each
    level costs time proportional to the edges it expands. A level is
    expanded in chunks of at most ``_BFS_CHUNK_KEYS`` (source, neighbor)
    keys.
    """
    n = net.n
    src, dst = np.nonzero(net.adjacency)  # row-major, so dst is CSR-ordered
    degree = np.bincount(src, minlength=n)
    first_edge = np.zeros(n, dtype=np.intp)
    np.cumsum(degree[:-1], out=first_edge[1:])
    d = np.full((n, n), UNREACHABLE, dtype=np.int32)
    block = max(1, min(n, _BFS_BLOCK_PAIRS // n))
    for lo in range(0, n, block):
        rows = d[lo : lo + block]
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
                # int32.
                stamps = UNREACHABLE - 1 - np.arange(keys.size)
                flat[keys] = stamps
                keys = keys[flat[keys] == stamps]
                flat[keys] = level
                found.append(keys)
                start = stop
            del ends
            frontier = np.concatenate(found)
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
    src, dst = np.nonzero(net.adjacency)
    k = net.degrees().astype(float)
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
            writer.writerow([label] + [str(int(x)) for x in net.adjacency[i]])


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
