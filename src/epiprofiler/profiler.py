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


def _weight_table(spec: DecaySpec, max_d: int) -> np.ndarray:
    """Weights at distances 0..max_d plus a trailing 0.0 slot, which is where
    UNREACHABLE (-1) lands when the table is indexed by a distance."""
    return np.array([decay_weight(spec, k) for k in range(max(max_d, 0) + 1)] + [0.0])


def _clip_unreachable(d: np.ndarray) -> np.ndarray:
    """Distances with any value below UNREACHABLE raised to it (a copy only
    when there is one)."""
    if d.size and d.min() < UNREACHABLE:
        return np.maximum(d, UNREACHABLE)
    return d


@dataclass(frozen=True, eq=False)
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
        self._freeze(scores, ranking)

    def _freeze(self, scores: np.ndarray, ranking: np.ndarray) -> None:
        scores.setflags(write=False)
        ranking.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "ranking", ranking)

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @classmethod
    def from_scores(cls, scores: np.ndarray, degenerate: bool = False) -> "LikelinessResult":
        """The result whose ranking orders ``scores`` descending, ties by
        ascending node index. The ranking is a permutation by construction,
        so unlike one passed to the constructor it is not checked again."""
        scores = np.array(scores, dtype=float)
        if scores.ndim != 1:
            raise ValueError("scores must be a vector")
        result = object.__new__(cls)
        object.__setattr__(result, "degenerate", bool(degenerate))
        result._freeze(scores, np.lexsort((np.arange(scores.shape[0]), -scores)))
        return result


# Rows x columns of one row block of decay weights: bounds the float64
# weights (and squared weights) gathered at a time.
_ROW_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True, eq=False)
class DecayProfile:
    """Every candidate source's decay weights over hop distances (row i is
    candidate i's profile), kept as the hop distances, the spec's weight
    table and the rows' Euclidean norms. No N x N weight matrix is ever
    held: weights are gathered one row block at a time. Build it once per
    distance matrix and decay spec, then score any number of observation
    vectors."""

    d: np.ndarray
    table: np.ndarray
    norms: np.ndarray

    @classmethod
    def build(cls, dist: DistanceMatrix, spec: DecaySpec) -> "DecayProfile":
        d = _clip_unreachable(dist.d)
        table = _weight_table(spec, int(d.max()) if d.size else 0)
        profile = cls(d, table, np.empty(dist.n))
        # Each row is summed pairwise exactly as a whole-matrix norm would.
        for lo, rows in profile._row_blocks():
            profile.norms[lo : lo + rows.shape[0]] = np.sqrt(np.add.reduce(rows * rows, axis=1))
        return profile

    def _row_blocks(self):
        """(first row, weights of the block's rows) over all row blocks."""
        n = self.d.shape[0]
        block = max(1, _ROW_BLOCK_ELEMENTS // max(n, 1))
        for lo in range(0, n, block):
            yield lo, self.table[self.d[lo : lo + block]]

    def score_batch(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score every candidate against each row of an ``(m, N)`` stack of
        observation vectors.

        Returns the ``(m, N)`` scores and an ``(m,)`` flag that is set for an
        all-zero row, whose scores are all 0. Each candidate's profile is
        compared with the observations by normalized scalar product
        (Euclidean norms), so scaling the observations leaves scores
        unchanged. Row products are summed by ``np.einsum``, not BLAS, so a
        score does not depend on the block size, on the stack it came in or
        on the BLAS thread count.
        """
        # C order keeps each row's products contiguous, so einsum sums them
        # in one order whatever the caller's memory layout.
        values = np.ascontiguousarray(values, dtype=float)
        n = self.norms.shape[0]
        if values.ndim != 2 or values.shape[1] != n:
            raise ValueError(f"dataset has {values.shape[-1]} entries but the network has {n} nodes")
        scores = np.empty((values.shape[0], n))
        for lo, rows in self._row_blocks():
            np.einsum("ij,mj->mi", rows, values, out=scores[:, lo : lo + rows.shape[0]])
        data_norms = np.sqrt(np.add.reduce(values * values, axis=1))
        degenerate = data_norms == 0.0
        # Profile norms are >= 1 because every kind gives weight 1 at distance 0.
        np.divide(scores, self.norms * data_norms[:, None], out=scores, where=~degenerate[:, None])
        scores[degenerate] = 0.0
        return scores, degenerate

    def score(self, values: np.ndarray) -> LikelinessResult:
        """Score every candidate against one observation vector; see
        :meth:`score_batch`. An all-zero vector yields all-zero scores with
        the degenerate flag set instead of an error, so day-by-day pipelines
        can proceed past empty days."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("observations must be a vector")
        scores, degenerate = self.score_batch(values[None, :])
        return LikelinessResult.from_scores(scores[0], degenerate[0])


def likeliness_scores(dist: DistanceMatrix, data: Dataset, spec: DecaySpec) -> LikelinessResult:
    """Score every candidate source against an observation snapshot; see
    :meth:`DecayProfile.score`."""
    return DecayProfile.build(dist, spec).score(data.values)


def hit_score(scores: np.ndarray, source: int) -> float:
    """Fraction of nodes searched, in descending order of the score vector
    (such as ``LikelinessResult.scores``), before reaching the true source;
    ties count against the algorithm."""
    if scores.ndim != 1:
        raise ValueError("scores must be a vector")
    n = scores.shape[0]
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
