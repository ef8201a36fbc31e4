"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from scratch along a different route than
the library (scalar arithmetic, compensated summation, triple relaxation),
so agreement is meaningful.
"""
import math

import numpy as np

from epiprofiler.network import UNREACHABLE
from epiprofiler.profiler import DecayKind, _weight_table


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


def oracle_scores(dist, values, spec):
    """From-scratch likeliness scores with fsum accumulation."""
    n = dist.n
    data_norm = math.sqrt(math.fsum(float(v) ** 2 for v in values))
    scores = []
    for i in range(n):
        w = [scalar_weight(spec, int(dist.d[i, j])) for j in range(n)]
        w_norm = math.sqrt(math.fsum(x * x for x in w))
        dot = math.fsum(w[j] * float(values[j]) for j in range(n))
        scores.append(dot / (w_norm * data_norm))
    return scores
