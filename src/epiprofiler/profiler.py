"""Source profiling: observation snapshots, hop-distance decay functions,
likeliness scores over a snapshot, and the hit-score search metric."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import chain, islice

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

    ``t_obs`` is the time the observation starts, when it is known.
    Synthetic observations count it from the outbreak's start;
    :func:`data_ingest.daily_deltas`, which cannot know that start, sets the
    day offset of each interval's start from the first report date.
    :func:`data_ingest.rank_timeline` reads it as the day index, and uses
    the dataset's position in its list when it is unset.
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
# squared weights) gathered at a time, and the observation rows whose norms
# are taken at a time.
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
    can feed it without building the N x N matrix). Returns the
    ``(len(specs), m, n)`` scores, the chunks of :func:`_scored_chunks`
    copied into place, and the ``(m,)`` degenerate flags.

    A live (not all-zero) row whose divisor, a profile norm times the row's
    norm, is beyond float range is refused with a ``ValueError``. It names
    the observation when the row's norm overflows, which is checked before
    any block is read, and the decay parameter when a profile norm does.
    """
    values, data_norms = _observations(values, n)
    scores = np.empty((len(specs), values.shape[0], n))
    for s_idx, lo, chunk in _scored_chunks(blocks, specs, values, data_norms):
        scores[s_idx, :, lo : lo + chunk.shape[1]] = chunk
    return scores, data_norms[:, 0] == 0.0


@np.errstate(over="ignore", invalid="ignore")
def _hit_scores(net: Network, specs, values: np.ndarray, source: int) -> np.ndarray:
    """The ``(len(specs), m)`` hit scores of ``source`` against each row of
    an ``(m, N)`` observation stack: the share of candidates scoring at least
    the source's score, so ties count against the profiler (1 on an all-zero
    row). One BFS pass, from the block holding the source, feeds
    :func:`_scored_chunks`: the source's own row first, whose scores (copied,
    as chunks are scratch) are the thresholds, then every chunk, counted
    against them. Errors are those of :func:`score_blocks`.
    """
    values, data_norms = _observations(values, net.n)
    blocks = _bfs_blocks(net, source)
    lo, rows = next(blocks)
    head = [(source, rows[source - lo : source - lo + 1]), (lo, rows)]
    chunks = _scored_chunks(chain(head, blocks), specs, values, data_norms)
    thresholds = [chunk[:, 0].copy() for _, _, chunk in islice(chunks, len(specs))]
    counts = np.zeros((len(specs), values.shape[0]), dtype=np.intp)
    for s_idx, _, chunk in chunks:
        counts[s_idx] += np.add.reduce(chunk >= thresholds[s_idx][:, None], axis=1)
    return counts / net.n


def _observations(values, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(m, n)`` stack ``values`` as C-ordered floats, so that einsum
    sums each row's products in one order whatever the caller's layout, and
    its row norms as an ``(m, 1)`` column, each its own pairwise sum taken
    one row block at a time. A norm beyond float range is refused."""
    values = np.ascontiguousarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != n:
        raise ValueError(f"dataset has {values.shape[-1]} entries but the network has {n} nodes")
    norms = np.empty((values.shape[0], 1))
    block = max(1, _ROW_BLOCK_ELEMENTS // max(n, 1))
    for lo in range(0, values.shape[0], block):
        obs = values[lo : lo + block]
        norms[lo : lo + block, 0] = np.sqrt(np.add.reduce(obs * obs, axis=1))
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(f"observation {bad[0]} is too large to score: its norm is beyond float range")
    return values, norms


def _scored_chunks(blocks, specs, values: np.ndarray, data_norms: np.ndarray):
    """The one scorer of hop-distance ``blocks`` (see :func:`score_blocks`),
    run under ``np.errstate`` by its callers: yields ``(s_idx, lo, scores)``
    for each spec on each chunk of candidates lo .. lo + b - 1, ``scores``
    being :func:`_score_rows`' (m, b) scratch, which the next overwrites. A
    chunk gathers at most ``_ROW_BLOCK_ELEMENTS`` weights from its spec's
    table, grown to the largest distance seen so far (no weight depends on
    the table's length)."""
    m, n = values.shape
    step = max(1, min(n, _ROW_BLOCK_ELEMENTS // max(n, 1)))
    scratch = np.empty((m, step))
    tables = [np.empty(0)] * len(specs)  # replaced by the first block's
    for lo, rows in blocks:
        top = int(rows.max()) if rows.size else 0
        tables = [t if top < t.size - 1 else _weight_table(spec, top) for spec, t in zip(specs, tables)]
        for c in range(0, rows.shape[0], step):
            scores = scratch[:, : min(step, rows.shape[0] - c)]
            for s_idx, (spec, table) in enumerate(zip(specs, tables)):
                _score_rows(spec, table[rows[c : c + step]], values, data_norms, scores)
                yield s_idx, lo + c, scores


def _score_rows(spec, weights, values, data_norms, out) -> None:
    """Score one chunk of candidates into ``out`` (m, b): the products of
    their weight rows ``weights`` (b, N) with each row of ``values``, over
    each profile norm times the row's ``data_norms`` (m, 1), and 0 on an
    all-zero row. Each norm is its row's own pairwise sum, each product an
    ``np.einsum`` sum (not BLAS) and each quotient its own division, so a
    score does not depend on the chunk, the stack or the BLAS threads."""
    norms = np.sqrt(np.add.reduce(weights * weights, axis=1))
    np.einsum("ij,mj->mi", weights, values, out=out)
    # Profile norms are >= 1 because every kind gives weight 1 at distance 0.
    divisor = norms * data_norms
    live = data_norms[:, 0] != 0.0
    if not np.isfinite(divisor).all(axis=1)[live].all():
        raise ValueError(
            f"{spec.kind.value} decay parameter {spec.param!r} gives a profile norm beyond float range"
        )
    np.divide(out, divisor, out=out, where=live[:, None])
    out[~live] = 0.0


def likeliness_scores(net: Network, data: Dataset, spec: DecaySpec) -> LikelinessResult:
    """Score every candidate source of the network against one observation
    snapshot; see :func:`score_batch`. An all-zero snapshot yields all-zero
    scores with the degenerate flag set instead of an error, so day-by-day
    pipelines can proceed past empty days."""
    scores, degenerate = score_batch(net, spec, data.values[None, :])
    return LikelinessResult(scores[0], degenerate[0])


def write_ranking_csv(result: LikelinessResult, labels, path) -> None:
    labels, scores = list(labels), result.scores
    rows = ([pos, labels[node], repr(float(scores[node]))] for pos, node in enumerate(result.ranking, 1))
    _write_csv(path, ["rank", "node_label", "score"], rows)
