"""Source profiling: hop-distance decay functions, likeliness scores over a
case-count snapshot, and the hit-score search metric."""
from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .network import UNREACHABLE, DistanceMatrix
from .simulator import Dataset

# Above this, d! overflows comfort; switch to the log-gamma route.
_EXACT_FACTORIAL_MAX = 20


class DecayKind(str, enum.Enum):
    NAIVE = "naive"
    POWER = "power"
    POLYNOMIAL = "polynomial"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class DecaySpec:
    """Decay function choice plus its positive parameter (absent for naive)."""

    kind: DecayKind
    param: float | None = None

    def __post_init__(self):
        kind = DecayKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is DecayKind.NAIVE:
            if self.param is not None:
                raise ValueError("naive decay takes no parameter")
        else:
            if self.param is None or not self.param > 0:
                raise ValueError(f"{kind.value} decay needs a positive parameter, got {self.param!r}")
            object.__setattr__(self, "param", float(self.param))


def decay_weight(spec: DecaySpec, d: int) -> float:
    """Weight of case mass at hop distance d from a candidate source.

    Negative d means unreachable and maps to 0 for every kind. All kinds
    equal 1 at d = 0.
    """
    if d < 0:
        return 0.0
    d = int(d)
    if spec.kind is DecayKind.NAIVE:
        return 1.0 if d == 0 else 0.0
    p = spec.param
    if spec.kind is DecayKind.POWER:
        if d <= _EXACT_FACTORIAL_MAX:
            return p**d / math.factorial(d)
        return math.exp(d * math.log(p) - math.lgamma(d + 1))
    if spec.kind is DecayKind.POLYNOMIAL:
        return (d + 1.0) ** (-p)
    return math.exp(-p * d)


def decay_weights(spec: DecaySpec, distances: np.ndarray) -> np.ndarray:
    """Vectorized decay_weight over an integer hop-distance array.

    One gather from a table of the weights at distances 0..max, whose
    trailing 0.0 slot is where UNREACHABLE (-1) lands.
    """
    d = np.asarray(distances)
    if d.size and d.min() < UNREACHABLE:
        d = np.maximum(d, UNREACHABLE)
    max_d = int(d.max()) if d.size else 0
    table = [decay_weight(spec, k) for k in range(max(max_d, 0) + 1)]
    return np.array(table + [0.0])[d]


@dataclass(frozen=True)
class LikelinessResult:
    """Per-node likeliness scores with the induced ranking.

    The ranking is in descending score order, ties broken by ascending node
    index. ``degenerate`` is set when the observation vector was all zero, in
    which case every score is 0 and the ranking is the identity order.
    """

    scores: np.ndarray
    ranking: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float).copy()
        ranking = np.asarray(self.ranking, dtype=np.int64).copy()
        if scores.ndim != 1 or ranking.shape != scores.shape:
            raise ValueError("scores and ranking must be vectors of equal length")
        if not np.array_equal(np.sort(ranking), np.arange(scores.shape[0])):
            raise ValueError("ranking must be a permutation of node indices")
        scores.setflags(write=False)
        ranking.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "ranking", ranking)

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def _rank_descending(scores: np.ndarray) -> np.ndarray:
    n = scores.shape[0]
    return np.lexsort((np.arange(n), -scores))


# Rows x columns of one row-norm block: bounds the squared-weight temporary.
_NORM_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class DecayProfile:
    """Every candidate source's decay weights over hop distances (one row per
    candidate) with the rows' Euclidean norms. Build it once per distance
    matrix and decay spec, then score any number of observation vectors."""

    weights: np.ndarray
    norms: np.ndarray

    @classmethod
    def build(cls, dist: DistanceMatrix, spec: DecaySpec) -> "DecayProfile":
        weights = decay_weights(spec, dist.d)
        n = dist.n
        norms = np.empty(n)
        # Row blocks sum each row pairwise exactly as a whole-matrix norm
        # would, without a second n x n temporary.
        block = max(1, _NORM_BLOCK_ELEMENTS // max(n, 1))
        for lo in range(0, n, block):
            rows = weights[lo : lo + block]
            norms[lo : lo + block] = np.sqrt(np.add.reduce(rows * rows, axis=1))
        return cls(weights, norms)

    def score(self, values: np.ndarray) -> LikelinessResult:
        """Score every candidate against one observation vector.

        Each candidate's profile is compared with the observations by
        normalized scalar product (Euclidean norms), so scaling the
        observations leaves scores unchanged. An all-zero vector yields
        all-zero scores with the degenerate flag set instead of an error, so
        day-by-day pipelines can proceed past empty days.
        """
        n = self.norms.shape[0]
        if values.shape[0] != n:
            raise ValueError(f"dataset has {values.shape[0]} entries but the network has {n} nodes")
        data_norm = float(np.linalg.norm(values))
        if data_norm == 0.0:
            return LikelinessResult(np.zeros(n), np.arange(n), degenerate=True)
        # Profile norms are >= 1 because every kind gives weight 1 at distance 0.
        scores = (self.weights @ values) / (self.norms * data_norm)
        return LikelinessResult(scores, _rank_descending(scores), degenerate=False)


def likeliness_scores(dist: DistanceMatrix, data: Dataset, spec: DecaySpec) -> LikelinessResult:
    """Score every candidate source against an observation snapshot; see
    :meth:`DecayProfile.score`."""
    return DecayProfile.build(dist, spec).score(data.values)


def hit_score(result: LikelinessResult, source: int, n: int | None = None) -> float:
    """Fraction of nodes searched, in descending score order, before reaching
    the true source; ties count against the algorithm."""
    scores = result.scores
    if n is None:
        n = scores.shape[0]
    elif n != scores.shape[0]:
        raise ValueError(f"node count {n} does not match {scores.shape[0]} scores")
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range for {n} nodes")
    return float(np.count_nonzero(scores >= scores[source])) / n


def write_ranking_csv(result: LikelinessResult, labels, path) -> None:
    labels = list(labels)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "node_label", "score"])
        for pos, node in enumerate(result.ranking, start=1):
            writer.writerow([pos, labels[node], repr(float(result.scores[node]))])
