"""Independent reference implementations used to cross-check the package,
and the dense views and statistics that only the tests need.

The reference implementations recompute results from scratch along a
different route than the library (scalar arithmetic, compensated summation,
triple relaxation, a per-source queue, a matrix exponential), so agreement
is meaningful.
"""
import math
from collections import deque
from itertools import permutations

import numpy as np

from epiprofiler.network import UNREACHABLE, Network, mobility_edges
from epiprofiler.profiler import DecayKind, _weight_table
from epiprofiler.simulator import ZeroVarianceError


def adjacency(net):
    """The dense bool adjacency matrix of a network."""
    adj = np.zeros((net.n, net.n), dtype=bool)
    adj[np.repeat(np.arange(net.n), net.degrees()), net.indices] = True
    return adj


def erdos_renyi_by_rows(n, mean_degree, seed):
    """``generate_erdos_renyi`` drawn one row of the upper triangle at a
    time: row i's uniforms decide its pairs (i, j > i). The library draws
    the same stream in fixed-size chunks of pairs, so the networks must be
    equal."""
    p = mean_degree / (n - 1)
    rng = np.random.default_rng(seed)
    upper = [np.flatnonzero(rng.random(n - 1 - i) < p) + (i + 1) for i in range(n - 1)]
    src = np.repeat(np.arange(n - 1), [links.size for links in upper])
    dst = np.concatenate(upper)
    rows, cols = np.concatenate([src, dst]), np.concatenate([dst, src])
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Network._from_csr(indptr, cols[np.lexsort((cols, rows))])


def mobility_matrix(net, gamma):
    """Dense view of ``mobility_edges``: row i holds the rates from node i to
    its neighbors and is all zero for an isolated node."""
    src, dst, rate = mobility_edges(net, gamma)
    g = np.zeros((net.n, net.n))
    g[src, dst] = rate
    return g


def linear_phase(net, params, init, t):
    """The infectious vector I(t) and the case counter J(t) of the noise-off
    model while I is much smaller than S, where dI/dt = M I and dJ/dt =
    alpha I are linear: exp(tA) (I0, J0) with A = [[M, 0], [alpha Id, 0]],
    M = (alpha - beta) Id + G^T - diag(outflow) and G the mobility rates.
    The exponential is a Taylor sum of tA / 2^s, with s chosen so that its
    1-norm is at most 1/2, squared s times (scaling and squaring; Higham,
    SIAM J. Matrix Anal. Appl. 26:1179, 2005)."""
    n = net.n
    g = mobility_matrix(net, params.gamma) if params.gamma > 0 else np.zeros((n, n))
    a = np.zeros((2 * n, 2 * n))
    a[:n, :n] = g.T - np.diag(g.sum(axis=1)) + (params.alpha - params.beta) * np.eye(n)
    a[n:, :n] = params.alpha * np.eye(n)
    a *= t
    s = max(0, math.ceil(math.log2(2 * max(np.abs(a).sum(axis=0).max(), 1e-300))))
    a /= 2**s
    term = exp = np.eye(2 * n)
    for k in range(1, 25):  # the remainder is below 2^-25 / 25!
        term = term @ a / k
        exp = exp + term
    for _ in range(s):
        exp = exp @ exp
    start = np.zeros(2 * n)
    start[[init.source, n + init.source]] = init.index_cases
    infectious, cases = np.split(exp @ start, 2)
    return infectious, cases


def is_interchangeable(d, nodes):
    """True when every permutation of the given nodes leaves the distance
    matrix ``d`` unchanged, i.e. the nodes occupy interchangeable positions."""
    n = d.shape[0]
    nodes = list(nodes)
    for perm in permutations(nodes):
        full = np.arange(n)
        full[nodes] = perm
        if not np.array_equal(d[np.ix_(full, full)], d):
            return False
    return True


def relaxation_distances(adj):
    """All-pairs hop counts by iterated relaxation over node triples."""
    n = adj.shape[0]
    big = n + 10  # larger than any possible hop count
    d = np.full((n, n), big)
    np.fill_diagonal(d, 0)
    d[adj == 1] = 1
    changed = True
    while changed:
        changed = False
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if d[i, k] + d[k, j] < d[i, j]:
                        d[i, j] = d[i, k] + d[k, j]
                        changed = True
    d[d >= big] = UNREACHABLE
    return d


def bfs_distances(net):
    """All-pairs hop counts by one plain-Python breadth-first search per
    source, a ``collections.deque`` over the CSR neighbour list: fast enough
    for the networks the relaxation oracle cannot reach."""
    indptr, indices = net.indptr.tolist(), net.indices.tolist()
    d = np.empty((net.n, net.n), dtype=int)
    for source in range(net.n):
        row = [UNREACHABLE] * net.n
        row[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in indices[indptr[v] : indptr[v + 1]]:
                if row[u] == UNREACHABLE:
                    row[u] = row[v] + 1
                    queue.append(u)
        d[source] = row
    return d


def scalar_weight(spec, d):
    """Scalar re-evaluation of the decay functions, no shared code paths."""
    if d < 0:
        return 0.0
    if spec.kind is DecayKind.NAIVE:
        return 1.0 if d == 0 else 0.0
    if spec.kind is DecayKind.POWER:
        out = 1.0
        for k in range(1, d + 1):
            out *= spec.param / k
        return out
    if spec.kind is DecayKind.POLYNOMIAL:
        return 1.0 / (d + 1) ** spec.param
    return math.exp(-spec.param * d)


def decay_weights(spec, distances):
    """The dense N x N decay-weight matrix: the library's weight table
    gathered at every hop distance, values below UNREACHABLE weighing as
    UNREACHABLE does. The library never builds this matrix; tests compare
    its row-block scoring against it."""
    d = np.maximum(np.asarray(distances), UNREACHABLE)
    return _weight_table(spec, int(d.max()) if d.size else 0)[d]


def whole_matrix_scores(d, spec, values):
    """Scores of each row of an (m, N) stack against the hop distances ``d``
    by the dense route, normalised over the whole matrix at once: the weight
    matrix's row norms and its products with the stack, then the data norms
    from ``values * values`` reduced on axis 1 and one broadcast
    ``np.divide`` over the (m, N) scores, with all-zero rows flagged and
    scored 0. The library normalises one row
    block at a time; each row's pairwise sum and each quotient are the same
    floating-point operations, so the bits must agree."""
    values = np.ascontiguousarray(values, dtype=float)
    weights = decay_weights(spec, d)
    norms = np.sqrt(np.add.reduce(weights * weights, axis=1))
    scores = np.einsum("ij,mj->mi", weights, values)
    data_norms = np.sqrt(np.add.reduce(values * values, axis=1))
    degenerate = data_norms == 0.0
    np.divide(scores, norms * data_norms[:, None], out=scores, where=~degenerate[:, None])
    scores[degenerate] = 0.0
    return scores, degenerate


def oracle_scores(d, values, spec):
    """From-scratch likeliness scores against the hop distances ``d`` with
    fsum accumulation."""
    n = d.shape[0]
    data_norm = math.sqrt(math.fsum(float(v) ** 2 for v in values))
    scores = []
    for i in range(n):
        w = [scalar_weight(spec, int(d[i, j])) for j in range(n)]
        w_norm = math.sqrt(math.fsum(x * x for x in w))
        dot = math.fsum(w[j] * float(values[j]) for j in range(n))
        scores.append(dot / (w_norm * data_norm))
    return scores


def average_ranks(values):
    """1-based ranks with each run of equal values at its average rank, by a
    scan over the stably sorted values."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def rank_correlation(x, y):
    """Spearman rank correlation with average ranks for ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("rank correlation needs two equal-length vectors of size >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("rank correlation needs finite values")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        raise ZeroVarianceError("rank correlation undefined for constant input")
    return float((rx @ ry) / denom)


def _average_ranks(values):
    """1-based ranks of finite ``values``, each tie group at its average
    rank: the group's last rank minus (count - 1) / 2."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]
