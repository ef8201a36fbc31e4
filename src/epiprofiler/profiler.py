"""Source profiling: observation snapshots, hop-distance decay functions,
likeliness scores over a snapshot, and the hit-score search metric."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .network import Network, _bfs_blocks, _number, _ReadOnlyArrays, _write_csv

# Above this, d! overflows comfort; switch to the log-gamma route.
_EXACT_FACTORIAL_MAX = 20


class ObservableKind(str, enum.Enum):
    """What a Dataset records per node."""

    INFECTIOUS = "infectious"
    CUMULATIVE_CASES = "cumulative_cases"
    INFECTIOUS_CHANGE = "infectious_change"
    NEW_CASES = "new_cases"

    @property
    def is_difference(self) -> bool:
        return self in (ObservableKind.INFECTIOUS_CHANGE, ObservableKind.NEW_CASES)


@dataclass(frozen=True, eq=False)
class Dataset(_ReadOnlyArrays):
    """One observation vector (a number per node) plus its kind tag.

    ``t_obs`` is provenance for synthetic data only; real pipelines leave it
    unset because the outbreak start time is unknown.
    """

    values: np.ndarray
    kind: ObservableKind
    t_obs: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("dataset values must be a vector")
        if not np.isfinite(values).all():
            raise ValueError("dataset values must be finite")
        if (values < 0).any():
            raise ValueError("dataset values must be non-negative")
        self._keep("values", values, self.values)
        object.__setattr__(self, "kind", ObservableKind(self.kind))

    @property
    def n(self) -> int:
        return self.values.shape[0]


class DecayKind(str, enum.Enum):
    NAIVE = "naive"
    POWER = "power"
    POLYNOMIAL = "polynomial"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class DecaySpec:
    """Decay function choice plus its finite positive parameter (absent for naive)."""

    kind: DecayKind
    param: float | None = None

    def __post_init__(self):
        kind = DecayKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is DecayKind.NAIVE:
            if self.param is not None:
                raise ValueError("naive decay takes no parameter")
        else:
            param = _number(self.param, f"{kind.value} decay parameter", 0, strict=True)
            object.__setattr__(self, "param", param)


def decay_weight(spec: DecaySpec, d: int) -> float:
    """Weight of case mass at hop distance d from a candidate source.

    Negative d means unreachable and maps to 0 for every kind. All kinds
    equal 1 at d = 0. A power weight beyond float range is ``math.inf``.
    """
    if d < 0:
        return 0.0
    d = int(d)
    if spec.kind is DecayKind.NAIVE:
        return 1.0 if d == 0 else 0.0
    p = spec.param
    if spec.kind is DecayKind.POWER:
        if d <= _EXACT_FACTORIAL_MAX:
            try:
                return p**d / math.factorial(d)
            except OverflowError:  # p**d alone is beyond float range
                pass
        try:
            return math.exp(d * math.log(p) - math.lgamma(d + 1))
        except OverflowError:
            return math.inf
    if spec.kind is DecayKind.POLYNOMIAL:
        return (d + 1.0) ** (-p)
    return math.exp(-p * d)


def _weight_table(spec: DecaySpec, max_d: int) -> np.ndarray:
    """Weights at distances 0..max_d plus a trailing 0.0 slot, which is where
    UNREACHABLE (-1) lands when the table is indexed by a distance."""
    return np.array([decay_weight(spec, k) for k in range(max(max_d, 0) + 1)] + [0.0])


@dataclass(frozen=True, eq=False)
class LikelinessResult(_ReadOnlyArrays):
    """Per-node likeliness scores with the induced ranking.

    ``LikelinessResult(scores, degenerate=False)`` derives the ranking from
    the scores: descending score, ties broken by ascending node index.
    ``degenerate`` is set when the observation vector was all zero, in which
    case every score is 0 and the ranking is the identity order.
    """

    scores: np.ndarray
    degenerate: bool = False
    ranking: np.ndarray = field(init=False)

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        if scores.ndim != 1:
            raise ValueError("scores must be a vector")
        self._keep("scores", scores, self.scores)
        self._keep("ranking", np.lexsort((np.arange(scores.shape[0]), -scores)))
        object.__setattr__(self, "degenerate", bool(self.degenerate))

    @property
    def n(self) -> int:
        return self.scores.shape[0]


# Rows x columns of one row block: bounds the float64 decay weights (and
# squared weights) gathered at a time, and the observation rows normalised
# at a time.
_ROW_BLOCK_ELEMENTS = 1 << 12


def score_batch(net: Network, spec: DecaySpec, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score every candidate source of the network against each row of an
    ``(m, N)`` stack of observation vectors.

    Candidate i's profile is its row of decay weights over hop distances.
    It is compared with the observations by normalized scalar product
    (Euclidean norms), so scaling the observations leaves scores unchanged.
    Returns the ``(m, N)`` scores and an ``(m,)`` flag that is set for an
    all-zero row, whose scores are all 0.

    This is :func:`score_blocks` for one spec, fed block by block by the
    breadth-first search, so the N x N hop-distance matrix is never built.
    """
    scores, degenerate = score_blocks(_bfs_blocks(net), net.n, (spec,), values)
    return scores[0], degenerate


# An overflow is refused below, so numpy's warning about it would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def score_blocks(blocks, n: int, specs, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`score_batch` for every spec in ``specs`` at once, from hop
    distances that arrive as blocks of candidate rows.

    ``blocks`` yields ``(lo, rows)``: the hop-distance rows of candidates
    lo, lo + 1, ..., each of length ``n``, with UNREACHABLE where there is no
    path. Together they cover every candidate once, in any order, and each
    block is read before the next is asked for (so ``network._bfs_blocks``
    can feed it without building the N x N matrix).
    Returns the ``(len(specs), m, n)`` scores and the ``(m,)`` degenerate
    flags.

    No N x N weight matrix is held: :func:`_score_rows` scores one block of
    candidates at a time. A spec's table of weights by distance grows to the
    largest distance seen so far; a weight does not depend on the table's
    length, so neither do the scores. The observations' norms and the
    normalising division are then taken one block of observation rows at a
    time, so no (m, n) temporary is made beside the scores; each row's norm
    is its own pairwise sum and each quotient its own division, so the block
    size does not change a bit.

    A live (not all-zero) row whose divisor, a profile norm times the row's
    norm, is beyond float range is refused with a ``ValueError`` before any
    division. It names the observation when the row's norm overflows, and
    the decay parameter when a profile norm does.
    """
    # C order keeps each row's products contiguous, so einsum sums them in
    # one order whatever the caller's memory layout.
    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != n:
        raise ValueError(f"dataset has {values.shape[-1]} entries but the network has {n} nodes")
    scores = np.empty((len(specs), values.shape[0], n))
    norms = np.empty((len(specs), n))
    # An empty table, which the first block replaces.
    tables = [np.empty(0)] * len(specs)
    for lo, rows in blocks:
        hi = lo + rows.shape[0]
        top = int(rows.max()) if rows.size else 0
        for s_idx, spec in enumerate(specs):
            if top >= tables[s_idx].size - 1:
                tables[s_idx] = _weight_table(spec, top)
            _score_rows(tables[s_idx], rows, values, scores[s_idx, :, lo:hi], norms[s_idx, lo:hi])
    degenerate = np.empty(values.shape[0], dtype=bool)
    block = max(1, _ROW_BLOCK_ELEMENTS // max(n, 1))
    for lo in range(0, values.shape[0], block):
        obs = values[lo : lo + block]
        data_norms = np.sqrt(np.add.reduce(obs * obs, axis=1))[:, None]
        live = data_norms != 0.0
        degenerate[lo : lo + block] = ~live[:, 0]
        if not np.isfinite(data_norms).all():
            row = lo + int(np.flatnonzero(~np.isfinite(data_norms))[0])
            raise ValueError(f"observation {row} is too large to score: its norm is beyond float range")
        for spec, spec_scores, spec_norms in zip(specs, scores[:, lo : lo + block], norms):
            # Profile norms are >= 1 because every kind gives weight 1 at distance 0.
            divisor = spec_norms * data_norms
            if not np.isfinite(divisor[live[:, 0]]).all():
                raise ValueError(
                    f"{spec.kind.value} decay parameter {spec.param!r} gives a profile norm beyond float range"
                )
            np.divide(spec_scores, divisor, out=spec_scores, where=live)
    scores[:, degenerate] = 0.0
    return scores, degenerate


def _score_rows(
    table: np.ndarray, d: np.ndarray, values: np.ndarray, products: np.ndarray, norms: np.ndarray
) -> None:
    """Score one block of candidates: for the hop-distance rows ``d`` of b
    candidates, write each candidate's profile norm into ``norms`` (b,) and
    its products with every row of ``values`` into ``products`` (m, b).

    The weights ``table[d]`` are gathered ``_ROW_BLOCK_ELEMENTS`` at a time,
    and both the norms and the products are taken from each gather. Each row
    norm is summed pairwise exactly as a whole-matrix norm would be, and row
    products are summed by ``np.einsum``, not BLAS, so a score does not
    depend on the block size, on the stack it came in or on the BLAS thread
    count.
    """
    block = max(1, _ROW_BLOCK_ELEMENTS // max(d.shape[1], 1))
    for lo in range(0, d.shape[0], block):
        rows = table[d[lo : lo + block]]
        hi = lo + rows.shape[0]
        norms[lo:hi] = np.sqrt(np.add.reduce(rows * rows, axis=1))
        np.einsum("ij,mj->mi", rows, values, out=products[:, lo:hi])


def likeliness_scores(net: Network, data: Dataset, spec: DecaySpec) -> LikelinessResult:
    """Score every candidate source of the network against one observation
    snapshot; see :func:`score_batch`. An all-zero snapshot yields all-zero
    scores with the degenerate flag set instead of an error, so day-by-day
    pipelines can proceed past empty days."""
    scores, degenerate = score_batch(net, spec, data.values[None, :])
    return LikelinessResult(scores[0], degenerate[0])


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
    labels, scores = list(labels), result.scores
    rows = ([pos, labels[node], repr(float(scores[node]))] for pos, node in enumerate(result.ranking, 1))
    _write_csv(path, ["rank", "node_label", "score"], rows)
