"""Transport-network substrate: graph type, random generation, hop distances,
and the degree-weighted mobility law used by the simulator."""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

UNREACHABLE = -1  # hop-distance sentinel; never a large stand-in integer


def _readonly(arr: np.ndarray, given=None) -> np.ndarray:
    """``arr`` marked read-only. When ``arr`` is a writable array that shares
    memory with the caller's array ``given``, a copy is marked instead, so
    the caller's array stays writable and its later writes cannot reach the
    instance that keeps ``arr``."""
    if arr.flags.writeable and isinstance(given, np.ndarray) and np.may_share_memory(arr, given):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


class _ReadOnlyArrays:
    """Base of the frozen dataclasses whose array fields are read-only. Each
    keeps its arrays through :meth:`_keep`, and unpickling freezes them
    again."""

    def _keep(self, name: str, arr: np.ndarray, given=None) -> None:
        """Store ``arr`` read-only as field ``name``; see :func:`_readonly`."""
        object.__setattr__(self, name, _readonly(arr, given))

    def __setstate__(self, state):
        # Unpickled arrays come back writable.
        for name, value in state.items():
            object.__setattr__(self, name, _readonly(value) if isinstance(value, np.ndarray) else value)


def _number(value, name: str, low=None, *, strict: bool = False, integer: bool = False):
    """The one rule for a scalar numeric field: ``value`` as a plain ``float``,
    which must be finite, or with ``integer`` as a plain ``int``. A Python or
    numpy int or float is a number (only an int with ``integer``); a bool or
    a string never is. With ``low``, the value must be at least ``low`` (above
    it when ``strict``). The ``ValueError`` names the field ``name``."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, kinds) and not isinstance(value, bool):
        try:
            number = int(value) if integer else float(value)
        except OverflowError:  # an int too large for a float
            number = math.inf
        # An int is always finite, so only a float goes to isfinite.
        finite = integer or math.isfinite(number)
        if finite and (low is None or (number > low if strict else number >= low)):
            return number
    sign = ("positive " if strict else "non-negative ") if low == 0 else ""
    rule = (f"a {sign}integer" if sign else "an integer") if integer else f"a finite {sign}number"
    if low not in (None, 0):
        rule += (" > " if strict else " >= ") + repr(low)
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _open_text(path) -> io.StringIO:
    """The UTF-8 text of the file at ``path`` as a stream whose line endings
    are left as they are, like ``open(path, newline="")``: the one place that
    decodes an input file. Bytes that are not UTF-8 raise a ``ValueError``
    naming the path and the line."""
    with open(path, "rb") as fh:  # not pathlib, which interns each part of the path
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_csv(path, header=None):
    """The one reader of an input CSV: yields each row of the file at ``path``
    that has a non-blank cell as ``(line, cells)``, with the cells stripped
    and ``line`` the physical line the row starts on. With ``header``, the
    first such row must be exactly those names and is not yielded, and every
    other must have one cell per name. Every error names the path and line."""

    def rows():
        with _open_text(path) as fh:
            reader = csv.reader(fh)
            line = 1
            try:
                for row in reader:
                    cells = [cell.strip() for cell in row]
                    if any(cells):
                        yield line, cells
                    line = reader.line_num + 1
            except csv.Error as exc:
                raise ValueError(f"{path}: line {line}: {exc}") from None

    body = rows()
    if header is not None:
        line, names = next(body, (1, None))
        if names != list(header):
            raise ValueError(f"{path}: line {line}: expected header {','.join(header)!r}, got {names!r}")
    for line, cells in body:
        if header is not None and len(cells) != len(header):
            raise ValueError(f"{path}: line {line}: expected {len(header)} columns, got {len(cells)}")
        yield line, cells


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` to a CSV file at ``path``:
    the one place that sets the package's CSV dialect (csv's default)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, obj) -> None:
    """Write ``obj`` to a JSON file at ``path``: indented by 2, keys sorted,
    ending in a newline. These are the bytes of ``json.dump(obj, fh,
    indent=2, sort_keys=True)``, built by :func:`_json_text` because json's
    indenting encoder leaves reference cycles behind on every call."""
    with open(path, "w") as fh:
        fh.write(_json_text(obj, "\n") + "\n")


def _json_text(value, newline: str) -> str:
    """``value`` as indented JSON with sorted keys. ``newline`` is a newline
    followed by the indent of the line ``value`` starts on; each item of a
    non-empty object or array goes on its own line, 2 spaces further in.
    Scalars go through ``json.dumps``, whose C encoder keeps no cycles."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be strings")
        items = [f"{json.dumps(key)}: {_json_text(value[key], inner)}" for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    return json.dumps(value)


@dataclass(frozen=True, init=False, eq=False)
class Network(_ReadOnlyArrays):
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
        self._keep("indptr", indptr)
        self._keep("indices", indices)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def _validated_csr(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of a square adjacency matrix, after checking
    the 0/1, diagonal and symmetry rules in that order over the whole matrix;
    each error names the rule's first offending cell in row-major order."""
    if adj.dtype != bool:
        bad = np.argwhere((adj != 0) & (adj != 1))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"adjacency[{i}][{j}] = {adj[i, j]!r} is not 0 or 1")
    loops = np.flatnonzero(np.diagonal(adj))
    if loops.size:
        raise ValueError(f"adjacency[{loops[0]}][{loops[0]}] must be 0 (no self-loops)")
    asym = np.argwhere(adj != adj.T)
    if asym.size:
        i, j = asym[0]
        raise ValueError(
            f"adjacency must be symmetric: adjacency[{i}][{j}]={adj[i, j] != 0:d} "
            f"but adjacency[{j}][{i}]={adj[j, i] != 0:d}"
        )
    rows, indices = np.nonzero(adj)
    return _indptr(rows, len(adj)), indices


def _indptr(rows, n):
    """CSR ``indptr`` on ``n`` nodes for entries of nodes ``rows``."""
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


# The node pairs of the largest random network: 14142 nodes. The draw visits
# every pair, and a dense adjacency CSV of that size is already about 400 MB.
_MAX_NODE_PAIRS = 10**8


def _check_graph(n, mean_degree) -> tuple[int, float]:
    """A random network's node count (at least 2, and at most
    ``_MAX_NODE_PAIRS`` node pairs) and mean degree (in (0, n - 1])."""
    n = _number(n, "nodes", 2, integer=True)
    if n * (n - 1) // 2 > _MAX_NODE_PAIRS:
        raise ValueError(f"nodes ({n}) give more than {_MAX_NODE_PAIRS} node pairs, the limit for one network")
    mean_degree = _number(mean_degree, "mean_degree", 0, strict=True)
    if mean_degree > n - 1:
        raise ValueError(f"mean_degree must lie in (0, {n - 1}], got {mean_degree!r}")
    return n, mean_degree


def generate_erdos_renyi(n: int, mean_degree: float, seed) -> Network:
    """Draw a G(n, p) random network with p = mean_degree / (n - 1).

    Each unordered node pair is linked independently; the draw is
    deterministic for a fixed seed. Disconnected results are kept as-is.
    """
    n, mean_degree = _check_graph(n, mean_degree)
    rng = np.random.default_rng(seed)
    # Pair k in row-major order is (i, j > i), i the first row with ends[i] > k.
    # Uniforms come 2^14 at a time: the same stream as one draw over all pairs.
    ends = np.cumsum(np.arange(n - 1, 0, -1))
    links = np.concatenate([
        np.flatnonzero(rng.random(min(16384, ends[-1] - k)) < mean_degree / (n - 1)) + k
        for k in range(0, ends[-1], 16384)
    ])
    src = np.searchsorted(ends, links, "right")
    dst = links - ends[src] + n
    # Each link in both directions, sorted by node, then by neighbour.
    rows, cols = np.concatenate([src, dst]), np.concatenate([dst, src])
    return Network._from_csr(_indptr(rows, n), cols[np.lexsort((cols, rows))])


# Sources x nodes covered by one BFS block, which bounds the int32 rows a
# block yields.
_BFS_BLOCK_PAIRS = 1 << 15
# Edges one gather step reads at most (more only when a single node has more
# neighbors), which bounds a level's scratch however dense the network is.
_BFS_RANGE_EDGES = 1 << 12


def _bfs_blocks(net: Network, first: int = 0):
    """Breadth-first all-pairs shortest hop counts, one block of source rows
    at a time: yields ``(lo, rows)``, where ``rows`` is an int32 view whose
    row b holds the hop counts from source ``lo + b`` (UNREACHABLE where
    there is no path). The block that holds source ``first`` comes first,
    then the others in source order; together they cover every source once.
    ``rows`` is a scratch array that the next block overwrites, so a caller
    reads or copies it before asking for the next one.

    A level-synchronous BFS runs from a block of sources at once, one bit
    per source (Then et al., "The More the Merrier", PVLDB 8(4), 2014):
    each node holds little-endian uint64 words of frontier bits and of
    reached bits. A level ORs each node's neighbours' frontier words, keeps
    the bits not reached before and writes the level where they are set.
    The neighbours are gathered in node ranges of at most
    ``_BFS_RANGE_EDGES`` edges. A block covers at most ``_BFS_BLOCK_PAIRS``
    (source, node) pairs. Every array keeps one shape for the whole call,
    so no level leaves a buffer of a new size in numpy's cache of freed
    small buffers; all but a level's unpacked bits are allocated once.
    """
    n = net.n
    indptr, dst = net.indptr, net.indices
    block = max(1, min(n, _BFS_BLOCK_PAIRS // n))
    scratch = np.empty((block, n), dtype=np.int32)
    words = np.zeros((3, n, -(-block // 64)), dtype="<u8")
    frontier, nxt, reached = words
    isolated = np.flatnonzero(indptr[1:] == indptr[:-1])
    # Node ranges [v0, v1) and their edges [e0, e1); starts[v] is node v's
    # first edge within its range. Row e1 - e0 of the gather scratch is
    # zero, so a range's trailing isolated nodes reduce to 0; the value
    # reduceat gives an earlier isolated node is zeroed after the ranges.
    ranges = []
    starts = indptr[:-1].copy()
    v0 = 0
    while v0 < n:
        e0 = indptr[v0]
        v1 = max(v0 + 1, int(np.searchsorted(indptr, e0 + _BFS_RANGE_EDGES, side="right")) - 1)
        starts[v0:v1] -= e0
        ranges.append((v0, v1, e0, indptr[v1]))
        v0 = v1
    gather = np.empty((max(e1 - e0 for _, _, e0, e1 in ranges) + 1, words.shape[2]), dtype=words.dtype)
    head = first - first % block
    for lo in (head, *range(0, head, block), *range(head + block, n, block)):
        rows = scratch[: min(block, n - lo)]
        rows.fill(UNREACHABLE)
        frontier.fill(0)
        for b in range(rows.shape[0]):
            rows[b, lo + b] = 0
            frontier[lo + b, b >> 6] = 1 << (b & 63)
        reached[...] = frontier
        level = 0
        while True:
            level += 1
            for v0, v1, e0, e1 in ranges:
                # The indices are valid, so "clip" only skips the copy of out
                # that take's default mode gathers into first.
                np.take(frontier, dst[e0:e1], axis=0, mode="clip", out=gather[: e1 - e0])
                gather[e1 - e0] = 0
                np.bitwise_or.reduceat(gather[: e1 - e0 + 1], starts[v0:v1], axis=0, out=nxt[v0:v1])
            nxt[isolated] = 0
            nxt |= reached
            nxt -= reached  # the bits first reached at this level
            if not nxt.any():
                break
            reached |= nxt
            # Bit b of node v's words is row b, column v of the unpacked bits.
            bits = np.unpackbits(nxt.view(np.uint8).T, axis=0, count=rows.shape[0], bitorder="little")
            rows[bits.view(bool)] = level
            frontier, nxt = nxt, frontier
        yield lo, rows


def mobility_edges(net: Network, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-link travel rates as a directed edge list ``(src, dst, rate)``.

    The rate from node i to neighbor j is proportional to sqrt(k_i * k_j),
    scaled so the rates leaving each non-isolated node sum to gamma. Edges
    come in row-major order (by source, then destination); isolated nodes
    have none.
    """
    gamma = _number(gamma, "gamma", 0, strict=True)
    k = net.degrees()
    src = np.repeat(np.arange(net.n), k)
    dst = net.indices
    k = k.astype(float)
    w = np.sqrt(k[src] * k[dst])
    row_sums = np.bincount(src, weights=w, minlength=net.n)
    return src, dst, w * (gamma / row_sums[src])


def save_adjacency(net: Network, path) -> None:
    """Write the adjacency CSV: label row, then one row per node of
    label followed by the 0/1 entries."""

    def rows():
        for i, label in enumerate(net.labels):
            row = ["0"] * net.n
            for j in net.indices[net.indptr[i] : net.indptr[i + 1]]:
                row[j] = "1"
            yield [label] + row

    _write_csv(path, net.labels, rows())


def load_adjacency(path) -> Network:
    """Load and validate an adjacency CSV written by :func:`save_adjacency`.

    Violations of the 0/1, symmetry, or zero-diagonal rules are hard errors
    naming the offending cell.
    """
    rows = list(_read_csv(path))
    if not rows:
        raise ValueError(f"{path}: empty adjacency file")
    (_, labels), *rows = rows
    n = len(labels)
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} node rows after the label row, got {len(rows)}")
    adj = np.zeros((n, n), dtype=bool)
    for i, (line, (label, *cells)) in enumerate(rows):
        where = f"{path}: line {line}"
        if label != labels[i] or len(cells) != n:
            raise ValueError(f"{where}: expected {labels[i]!r} and {n} cells, got {label!r} and {len(cells)}")
        for j, text in enumerate(cells):
            if text not in ("0", "1"):
                raise ValueError(f"{where}: cell ({labels[i]}, {labels[j]}) = {text!r} is not 0 or 1")
            adj[i, j] = text == "1"
    try:
        return Network(adj, labels=labels)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
