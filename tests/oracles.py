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

from epiprofiler.network import UNREACHABLE, Network, _bfs_blocks, _number, _readonly, mobility_edges
from epiprofiler.profiler import Dataset, DecayKind, ObservableKind, _weight_table
from epiprofiler.simulator import _grid_steps


class ZeroVarianceError(ValueError):
    """Raised when a correlation is requested for a constant profile."""


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


def _distance_dtype(n):
    """Narrowest dtype that holds any hop count on N nodes (a hop count is at
    most N - 1): where distances are kept when some value does not fit int8."""
    return np.dtype(np.int16 if n <= np.iinfo(np.int16).max + 1 else np.int32)


def hop_distances(net):
    """The dense all-pairs hop-count matrix, UNREACHABLE where there is no
    path: the library's breadth-first blocks copied into a read-only int8
    matrix. The first block that holds a hop count above 127 (only on a
    network of diameter 128 or more) widens the result once to
    ``_distance_dtype(N)``. The library never builds this matrix."""
    n = net.n
    d = np.empty((n, n), dtype=np.int8)
    for lo, rows in _bfs_blocks(net):
        if d.dtype == np.int8 and rows.max() > np.iinfo(np.int8).max:
            d = d.astype(_distance_dtype(n))
        d[lo : lo + rows.shape[0]] = rows
    return _readonly(d)


def hit_score(scores, source):
    """Fraction of nodes searched, in descending order of the score vector,
    before reaching the true source; ties count against the algorithm. The
    library counts the same ``>=`` chunk by chunk without holding the
    vector."""
    if scores.ndim != 1:
        raise ValueError("scores must be a vector")
    n = scores.shape[0]
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range for {n} nodes")
    return float(np.count_nonzero(scores >= scores[source])) / n


def report_index(traj, t):
    """Index of reporting time t of a trajectory (every run starts at t = 0)."""
    return _grid_steps(t, traj.report_dt, "t")


def row(traj, series, report):
    """The vector of ``series`` (one of ``simulator.SERIES``) at report
    index ``report`` of a trajectory."""
    if report > traj.last_report:
        raise ValueError(
            f"t={report * traj.report_dt!r} is outside the simulated range "
            f"[0.0, {traj.last_report * traj.report_dt!r}]"
        )
    return getattr(traj, series)[report]


def synthesize_dataset(traj, t_obs, delta_t=1.0, kind=ObservableKind.NEW_CASES):
    """Slice an observation vector out of a whole trajectory, one
    observation at a time. The library slices a replicate's whole stack of
    observations from the rows it kept of the run.

    Difference kinds report max(0, X(t_obs + delta_t) - X(t_obs)) per node,
    for a finite positive delta_t; snapshot kinds report the raw vector at
    t_obs (delta_t is ignored).
    """
    kind = ObservableKind(kind)
    series, times = _observation_reads(kind, t_obs, delta_t)
    rows = [row(traj, series, report_index(traj, t)) for t in times]
    values = rows[0].copy() if len(rows) == 1 else np.maximum(rows[1] - rows[0], 0.0)
    return Dataset(values, kind, t_obs=float(t_obs))


def _observation_reads(kind, t_obs, delta_t):
    """The series an observation of ``kind`` at ``t_obs`` reads, and the
    times it reads it at: t_obs, and t_obs + delta_t for a difference kind."""
    kind = ObservableKind(kind)
    delta_t = _number(delta_t, "delta_t", 0, strict=True) if kind.is_difference else delta_t
    infectious = kind in (ObservableKind.INFECTIOUS, ObservableKind.INFECTIOUS_CHANGE)
    times = (t_obs, t_obs + delta_t) if kind.is_difference else (t_obs,)
    return "infectious" if infectious else "cases", times


def initial_correlation(traj, t):
    """Pearson correlation between the infectious profile at time t and the
    initial profile (report 0), clipped into [-1, 1] against rounding (a
    profile proportional to the initial one can otherwise come out a few ulp
    above 1). Raises ZeroVarianceError when either profile is constant across
    nodes, so callers may skip the sample."""
    start = row(traj, "infectious", 0)
    now = row(traj, "infectious", report_index(traj, t))
    x = start - start.mean()
    y = now - now.mean()
    sx = float(x @ x)
    sy = float(y @ y)
    if sx == 0.0 or sy == 0.0:
        which = "initial" if sx == 0.0 else f"t={t}"
        raise ZeroVarianceError(f"infectious profile at {which} is constant across nodes")
    return min(1.0, max(-1.0, float((x @ y) / math.sqrt(sx * sy))))


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
