import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiprofiler import profiler
from epiprofiler.data_ingest import SARS_CASES_FILE, bundled_data_path, load_case_series
from epiprofiler.network import (
    UNREACHABLE,
    Network,
    generate_erdos_renyi,
)
from epiprofiler.profiler import (
    DecayKind,
    DecaySpec,
    LikelinessResult,
    decay_weight,
    likeliness_scores,
    score_batch,
)
from epiprofiler.simulator import EpidemicParams, InitialCondition, simulate

NAIVE = DecaySpec(DecayKind.NAIVE)
POLY_HALF = DecaySpec(DecayKind.POLYNOMIAL, 0.5)
ALL_KINDS = [
    NAIVE,
    DecaySpec(DecayKind.POWER, 2.0),
    POLY_HALF,
    DecaySpec(DecayKind.EXPONENTIAL, 0.05),
]


def path_graph(n):
    adj = np.zeros((n, n), dtype=int)
    link = np.arange(n - 1)
    adj[link, link + 1] = adj[link + 1, link] = 1
    return Network(adj)


from oracles import (
    adjacency,
    decay_weights,
    hit_score,
    hop_distances,
    oracle_scores,
    scalar_weight,
    whole_matrix_scores,
)


class TestDecaySpec:
    def test_naive_rejects_param(self):
        with pytest.raises(ValueError, match="naive"):
            DecaySpec(DecayKind.NAIVE, 1.0)

    @pytest.mark.parametrize("kind", [DecayKind.POWER, DecayKind.POLYNOMIAL, DecayKind.EXPONENTIAL])
    def test_param_required_and_positive(self, kind):
        with pytest.raises(ValueError):
            DecaySpec(kind)
        for bad in (-0.5, 0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite positive"):
                DecaySpec(kind, bad)

    def test_kind_coerced_from_string(self):
        assert DecaySpec("polynomial", 0.5) == POLY_HALF


class TestDecayWeight:
    def test_polynomial_half_at_three(self):
        assert decay_weight(POLY_HALF, 3) == pytest.approx(0.5, abs=1e-15)

    def test_power_two_series(self):
        spec = DecaySpec(DecayKind.POWER, 2.0)
        got = [decay_weight(spec, d) for d in range(5)]
        # rises then falls: ratio w(d+1)/w(d) = param/(d+1)
        assert got == pytest.approx([1.0, 2.0, 2.0, 4.0 / 3.0, 2.0 / 3.0], abs=1e-15)

    def test_exponential_small_rate(self):
        spec = DecaySpec(DecayKind.EXPONENTIAL, 0.05)
        assert decay_weight(spec, 10) == pytest.approx(math.exp(-0.5), abs=1e-15)

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_unit_weight_at_source(self, spec):
        assert decay_weight(spec, 0) == 1.0

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_unreachable_maps_to_zero(self, spec):
        assert decay_weight(spec, UNREACHABLE) == 0.0

    def test_naive_is_indicator(self):
        assert decay_weight(NAIVE, 0) == 1.0
        assert all(decay_weight(NAIVE, d) == 0.0 for d in (1, 2, 7))

    def test_power_log_gamma_route_continuous(self):
        # the exact and log-gamma branches agree at the crossover
        spec = DecaySpec(DecayKind.POWER, 2.0)
        exact_20 = 2.0**20 / math.factorial(20)
        assert decay_weight(spec, 20) == pytest.approx(exact_20, rel=1e-12)
        exact_21 = 2.0**21 / math.factorial(21)
        assert decay_weight(spec, 21) == pytest.approx(exact_21, rel=1e-12)

    def test_power_weight_beyond_float_range_is_inf(self):
        # 1e200**2 / 2 is beyond float range; 1e20**16 alone is too, but
        # 1e320 / 16! is not, so that weight takes the log-gamma route.
        assert decay_weight(DecaySpec(DecayKind.POWER, 1e200), 2) == math.inf
        want = float(Fraction(10**320, math.factorial(16)))
        assert decay_weight(DecaySpec(DecayKind.POWER, 1e20), 16) == pytest.approx(want, rel=1e-12)

    def test_power_large_distance_no_overflow(self):
        spec = DecaySpec(DecayKind.POWER, 2.0)
        w = decay_weight(spec, 500)
        assert 0.0 <= w < 1e-300

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_vectorized_negative_distances_map_to_zero(self, spec):
        got = decay_weights(spec, np.array([[0, -1], [-5, 2]]))
        assert got[0, 1] == 0.0 and got[1, 0] == 0.0
        assert got[0, 0] == 1.0 and got[1, 1] == decay_weight(spec, 2)

    def test_vectorized_matches_scalar(self):
        d = np.array([[0, 3, UNREACHABLE], [3, 0, 1], [UNREACHABLE, 1, 0]])
        for spec in ALL_KINDS:
            got = decay_weights(spec, d)
            want = [[scalar_weight(spec, int(x)) for x in row] for row in d]
            np.testing.assert_allclose(got, want, rtol=1e-15)


class TestLikelinessScores:
    def test_path_polynomial_hand_values(self):
        result = likeliness_scores(path_graph(3), [0, 1, 0], POLY_HALF)
        # candidate 1 profile norm is sqrt(2); ends tie below it
        assert result.scores[1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert result.scores[0] == pytest.approx(0.52223, abs=1e-5)
        assert result.scores[2] == pytest.approx(0.52223, abs=1e-5)
        assert result.ranking.tolist() == [1, 0, 2]
        assert not result.degenerate

    def test_naive_reduces_to_normalized_data(self):
        values = np.array([0.0, 7.0, 0.0, 3.0])
        net = generate_erdos_renyi(4, 2.0, seed=2)
        result = likeliness_scores(net, values, NAIVE)
        np.testing.assert_allclose(result.scores, values / np.linalg.norm(values), rtol=1e-12)
        assert result.ranking[0] == 1  # argmax of the data ranks first

    def test_degenerate_all_zero(self):
        result = likeliness_scores(path_graph(4), [0, 0, 0, 0], POLY_HALF)
        assert result.degenerate
        assert np.all(result.scores == 0.0)
        assert result.ranking.tolist() == [0, 1, 2, 3]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="nodes"):
            likeliness_scores(path_graph(3), [1, 2], NAIVE)
        with pytest.raises(ValueError, match="values must be a vector"):
            likeliness_scores(path_graph(3), np.ones((1, 3)), NAIVE)

    def test_scores_within_unit_interval_for_nonnegative_data(self):
        net = generate_erdos_renyi(30, 2.0, seed=3)
        rng = np.random.default_rng(4)
        result = likeliness_scores(net, rng.random(30), POLY_HALF)
        assert np.all(result.scores >= 0.0)
        assert np.all(result.scores <= 1.0 + 1e-12)

    @pytest.mark.parametrize("spec", ALL_KINDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_extended_precision_oracle(self, spec, seed):
        rng = np.random.default_rng((41, seed))
        n = int(rng.integers(2, 9))
        net = generate_erdos_renyi(n, min(float(n) - 1, 2.0), seed=(42, seed))
        values = rng.integers(0, 20, size=n).astype(float)
        if values.sum() == 0:
            values[0] = 1.0
        result = likeliness_scores(net, values, spec)
        np.testing.assert_allclose(result.scores, oracle_scores(hop_distances(net), values, spec), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(exponent=st.integers(min_value=-120, max_value=120))
    def test_scale_invariance_exact_for_binary_scales(self, exponent):
        # powers of two rescale floats without rounding, so invariance is bitwise
        net = generate_erdos_renyi(12, 2.0, seed=6)
        values = np.arange(12, dtype=float)
        base = likeliness_scores(net, values, POLY_HALF)
        scaled = likeliness_scores(net, values * 2.0**exponent, POLY_HALF)
        np.testing.assert_array_equal(base.scores, scaled.scores)
        np.testing.assert_array_equal(base.ranking, scaled.ranking)

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance_up_to_input_rounding(self, scale):
        net = generate_erdos_renyi(12, 2.0, seed=6)
        values = np.arange(12, dtype=float)
        base = likeliness_scores(net, values, POLY_HALF)
        scaled = likeliness_scores(net, values * scale, POLY_HALF)
        np.testing.assert_allclose(scaled.scores, base.scores, rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_permutation_equivariance(self, data):
        n = 9
        net = generate_erdos_renyi(n, 2.0, seed=51)
        values = np.array([3.0, 0.0, 5.0, 1.0, 0.0, 2.0, 8.0, 0.0, 1.0])
        perm = np.array(data.draw(st.permutations(range(n))))
        for spec in ALL_KINDS:
            base = likeliness_scores(net, values, spec)
            relabeled = Network(adjacency(net)[np.ix_(perm, perm)])
            permuted = likeliness_scores(relabeled, values[perm], spec)
            np.testing.assert_allclose(permuted.scores, base.scores[perm], atol=1e-12)

    @pytest.mark.parametrize("kind,param", [(DecayKind.POLYNOMIAL, 50.0), (DecayKind.EXPONENTIAL, 50.0)])
    def test_large_parameter_converges_to_naive(self, kind, param):
        net = generate_erdos_renyi(15, 2.0, seed=9)
        values = np.array([0.0, 4, 1, 0, 2, 7, 0, 0, 3, 1, 0, 5, 2, 0, 1], dtype=float)
        sharp = likeliness_scores(net, values, DecaySpec(kind, param))
        naive = likeliness_scores(net, values, NAIVE)
        assert np.max(np.abs(sharp.scores - naive.scores)) < 1e-6

    def test_interchangeable_nodes_tie(self):
        # star: all leaves interchangeable; data symmetric under leaf swaps.
        # Summation order differs per row, so ties hold to accumulation noise.
        adj = np.zeros((4, 4), dtype=int)
        adj[0, 1:] = adj[1:, 0] = 1
        result = likeliness_scores(Network(adj), [5.0, 1.0, 1.0, 1.0], POLY_HALF)
        assert result.scores[1] == pytest.approx(result.scores[2], abs=1e-13)
        assert result.scores[1] == pytest.approx(result.scores[3], abs=1e-13)
        # and the tied leaves occupy adjacent ranking positions
        leaf_positions = sorted(np.where(np.isin(result.ranking, [1, 2, 3]))[0])
        assert leaf_positions == [1, 2, 3]

    def test_unreachable_candidates_score_low(self):
        # node 3 isolated: its profile is the unit vector at itself
        adj = np.zeros((4, 4), dtype=int)
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
        result = likeliness_scores(Network(adj), [4.0, 2.0, 1.0, 0.0], POLY_HALF)
        assert result.scores[3] == 0.0


class TestDecayProfile:
    """Candidate i's decay profile is its row of decay weights over hop
    distances; ``score_batch`` gathers the profiles one row block at a time."""

    def test_row_norms_bitwise_equal_whole_matrix_norms(self):
        # n=300 spans two row blocks. Against the unit vector at node m,
        # candidate i scores w_im / |w_i| exactly, so the scores carry the
        # row norms.
        net = generate_erdos_renyi(300, 2.0, seed=17)
        for spec in ALL_KINDS:
            scores, _ = score_batch(net, spec, np.eye(net.n))
            weights = decay_weights(spec, hop_distances(net))
            want = weights / np.linalg.norm(weights, axis=1)[:, None]
            assert np.array_equal(scores, want.T)

    def test_one_profile_scores_many_vectors(self):
        net = generate_erdos_renyi(40, 2.0, seed=18)
        rng = np.random.default_rng(19)
        values = rng.random((5, 40))
        values[2] = 0.0
        scores, degenerate = score_batch(net, POLY_HALF, values)
        assert degenerate.tolist() == [False, False, True, False, False]
        for row, vector in enumerate(values):
            want = likeliness_scores(net, vector, POLY_HALF)
            assert np.array_equal(scores[row], want.scores)
            assert want.degenerate == degenerate[row]
            assert np.array_equal(want.ranking, LikelinessResult(scores[row]).ranking)

    def test_a_divisor_beyond_float_range_is_refused(self):
        # Power 400 on a 500-node path weighs some hop of every candidate
        # above 1e154, so every profile norm overflows; an observation of
        # 1e200 overflows its own norm. Each would score every candidate 0.
        net = path_graph(500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"power decay parameter 400\.0 "):
                likeliness_scores(net, np.ones(500), DecaySpec(DecayKind.POWER, 400.0))
            with pytest.raises(ValueError, match="observation 1 "):
                score_batch(net, POLY_HALF, np.stack([np.ones(500), np.full(500, 1e200)]))

    def test_all_zero_rows_are_not_refused(self):
        # A degenerate row divides nothing, so an overflowing profile norm
        # does not matter to it.
        scores, degenerate = score_batch(path_graph(3), DecaySpec(DecayKind.POWER, 1e200), np.zeros((2, 3)))
        assert degenerate.tolist() == [True, True]
        assert not scores.any()

    @pytest.mark.parametrize("spec", ALL_KINDS)
    @pytest.mark.parametrize("scale", [1e-200, 1e-161])
    def test_a_row_whose_squares_underflow_is_not_degenerate(self, spec, scale):
        # Every square of 1e-200 underflows to 0, so the row's norm is 0
        # although its values are not; squares of about 1e-161 are
        # subnormals, whose sum was off by 1e-3 relative.
        net = generate_erdos_renyi(60, 2.0, seed=27)
        values = np.random.default_rng(28).random((2, 60))
        tiny = values * scale
        kept = tiny.copy()
        want, _ = score_batch(net, spec, values)
        got, degenerate = score_batch(net, spec, tiny)
        assert np.array_equal(tiny, kept)
        assert not degenerate.any()
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0)
        for row in range(2):
            assert np.array_equal(LikelinessResult(got[row]).ranking, LikelinessResult(want[row]).ranking)

    def test_underflow_rescale_leaves_other_rows_bitwise_alone(self):
        net = generate_erdos_renyi(60, 2.0, seed=29)
        values = np.random.default_rng(30).random((3, 60))
        values[2] = 0.0
        want, want_degenerate = score_batch(net, POLY_HALF, values)
        got, degenerate = score_batch(net, POLY_HALF, np.vstack([values, values[:1] * 1e-200]))
        assert np.array_equal(got[:3], want)
        assert degenerate.tolist() == want_degenerate.tolist() + [False]
        assert degenerate[2] and not got[2].any()

    def test_rejects_a_stack_of_the_wrong_width(self):
        net = path_graph(3)
        with pytest.raises(ValueError, match=re.escape("observation has 4 entries but the network has 3 nodes")):
            score_batch(net, POLY_HALF, np.ones((2, 4)))
        # A vector, or a stack of stacks, is no (m, N) stack, even when its
        # last axis has N entries.
        for shape in ((3,), (1, 1, 3)):
            message = f"observations must be an (m, N) stack, got shape {shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                score_batch(net, POLY_HALF, np.ones(shape))

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_scores_do_not_depend_on_block_size(self, spec, monkeypatch):
        # n=1031 spans 344 row blocks of 3 rows at the default block size.
        n = 1031
        net = generate_erdos_renyi(n, 2.0, seed=21)
        values = np.random.default_rng(22).random((3, n))
        want, _ = score_batch(net, spec, values)
        for rows in (1, 8, n):
            monkeypatch.setattr(profiler, "_ROW_BLOCK_ELEMENTS", rows * n)
            got, _ = score_batch(net, spec, values)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_scores_do_not_depend_on_batch_size(self, spec):
        n = 300
        net = generate_erdos_renyi(n, 2.0, seed=23)
        values = np.random.default_rng(24).random((9, n))
        stacked, _ = score_batch(net, spec, values)
        for lo, hi in ((0, 1), (1, 4), (4, 9)):
            part, _ = score_batch(net, spec, values[lo:hi])
            assert np.array_equal(part, stacked[lo:hi])
        for row, vector in enumerate(values):
            assert np.array_equal(likeliness_scores(net, vector, spec).scores, stacked[row])

    def test_blocks_in_any_order_score_every_spec_as_score_batch_does(self):
        # Blocks of uneven size in shuffled order, so that a later block
        # reaches farther than every block before it and each spec's table
        # grows mid-stream.
        n = 150
        net = generate_erdos_renyi(n, 1.5, seed=31)
        d = hop_distances(net)
        values = np.random.default_rng(32).random((3, n))
        values[1] = 0.0
        bounds = [0, 1, 7, 40, 41, 97, n]
        blocks = [(lo, d[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        blocks = [blocks[k] for k in np.random.default_rng(33).permutation(len(blocks))]
        reach = [int(rows.max()) for _, rows in blocks]
        assert any(reach[k] > max(reach[:k]) for k in range(1, len(reach)))
        # The scorer a replicate drives, assembled per spec as score_batch does.
        obs, data_norms = profiler._observations(values, n)
        scores = np.full((len(ALL_KINDS), 3, n), np.nan)
        for s_idx, lo, chunk in profiler._scored_chunks(iter(blocks), ALL_KINDS, obs, data_norms):
            scores[s_idx, :, lo : lo + chunk.shape[1]] = chunk
        degenerate = data_norms[:, 0] == 0.0
        assert scores.shape == (len(ALL_KINDS), 3, n)
        for spec, got in zip(ALL_KINDS, scores):
            want, want_degenerate = score_batch(net, spec, values)
            assert np.array_equal(got, want)
            assert np.array_equal(degenerate, want_degenerate)

    @pytest.mark.parametrize("row_elements", [1, 50, 1 << 12, 1 << 14])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 70),
        m=st.integers(1, 12),
        zero_rows=st.integers(0, (1 << 12) - 1),
        scale=st.integers(-6, 6),
        seed=st.integers(0, 1000),
    )
    def test_row_block_normalisation_matches_the_whole_matrix(
        self, row_elements, n, m, zero_rows, scale, seed
    ):
        # Bit r of zero_rows zeroes row r of the stack, so degenerate rows
        # fall anywhere in and across the row blocks.
        rng = np.random.default_rng(seed)
        net = generate_erdos_renyi(n, min(1.5, n - 1.0), seed=seed)
        d = hop_distances(net)
        values = rng.random((m, n)) * 10.0 ** scale
        values[[bool(zero_rows >> r & 1) for r in range(m)]] = 0.0
        for spec in ALL_KINDS:
            with mock.patch.object(profiler, "_ROW_BLOCK_ELEMENTS", row_elements):
                got, degenerate = score_batch(net, spec, values)
            want, want_degenerate = whole_matrix_scores(d, spec, values)
            assert np.array_equal(got, want)
            assert np.array_equal(degenerate, want_degenerate)

    def test_scores_do_not_depend_on_blas_threads(self):
        script = (
            "import hashlib, numpy as np\n"
            "from epiprofiler.network import generate_erdos_renyi\n"
            "from epiprofiler.profiler import DecayKind, DecaySpec, likeliness_scores, score_batch\n"
            "net = generate_erdos_renyi(700, 2.0, seed=25)\n"
            "values = np.random.default_rng(26).random((4, 700))\n"
            "h = hashlib.sha256()\n"
            "for spec in (DecaySpec(DecayKind.NAIVE), DecaySpec(DecayKind.POWER, 2.0),\n"
            "             DecaySpec(DecayKind.POLYNOMIAL, 0.5), DecaySpec(DecayKind.EXPONENTIAL, 0.05)):\n"
            "    h.update(score_batch(net, spec, values)[0].tobytes())\n"
            "    h.update(likeliness_scores(net, values[0], spec).scores.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = str(Path(profiler.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            digests.append(out.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_memory_budget(self):
        # tracemalloc sees numpy's allocations; one N x N float64 array is
        # 8 N^2 bytes, so scoring must gather weights by row block.
        n = 600
        net = generate_erdos_renyi(n, 2.0, seed=27)
        values = np.random.default_rng(28).random((4, n))
        score_batch(net, POLY_HALF, values)  # first-call imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for vector in values:
                likeliness_scores(net, vector, POLY_HALF)
            score_batch(net, POLY_HALF, values)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * n


class TestHitScore:
    def test_counts_ties_against_the_algorithm(self):
        result = LikelinessResult(np.array([0.3, 0.9, 0.9, 0.1, 0.5]))
        assert hit_score(result.scores, 4) == pytest.approx(0.6)

    def test_unique_maximum_is_perfect(self):
        result = LikelinessResult(np.array([0.1, 0.9, 0.3]))
        assert hit_score(result.scores, 1) == pytest.approx(1.0 / 3.0)

    def test_all_equal_scores_hit_everything(self):
        result = LikelinessResult(np.zeros(6))
        assert hit_score(result.scores, 2) == 1.0

    def test_source_validation(self):
        result = LikelinessResult(np.zeros(3))
        with pytest.raises(ValueError):
            hit_score(result.scores, 3)
        with pytest.raises(ValueError, match="vector"):
            hit_score(np.zeros((2, 3)), 0)

    def test_random_scores_baseline(self):
        # i.i.d. continuous scores: mean hit fraction is (N+1)/(2N)
        n = 50
        rng = np.random.default_rng(123)
        total = 0.0
        trials = 2000
        for _ in range(trials):
            scores = rng.random(n)
            result = LikelinessResult(scores)
            total += hit_score(result.scores, int(rng.integers(n)))
        assert total / trials == pytest.approx((n + 1) / (2 * n), abs=0.02)


ARRAY_DATACLASSES = {
    "Network": lambda: generate_erdos_renyi(5, 2.0, seed=1),
    "LikelinessResult": lambda: LikelinessResult(np.array([0.3, 0.1, 0.3])),
    "Trajectory": lambda: simulate(
        generate_erdos_renyi(5, 2.0, seed=1),
        EpidemicParams(0.16, 0.04, 0.2),
        InitialCondition(0, 20.0, 1e4),
        2.0,
        sim_dt=0.1,
        seed=3,
    ),
    "CaseReportSeries": lambda: load_case_series(bundled_data_path(SARS_CASES_FILE)),
}


class TestArrayDataclasses:
    @pytest.mark.parametrize("name", sorted(ARRAY_DATACLASSES))
    def test_identity_equality_and_hash(self, name):
        # Array fields have no single truth value, so these compare by
        # identity: equal content is not equality, and nothing raises.
        a, b = ARRAY_DATACLASSES[name](), ARRAY_DATACLASSES[name]()
        assert type(a).__name__ == name
        assert a == a
        assert not a == b
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


class TestRankingExport:
    def test_csv_ranks_descending(self, tmp_path):
        from epiprofiler.profiler import write_ranking_csv

        result = likeliness_scores(path_graph(3), [0, 1, 0], POLY_HALF)
        path = tmp_path / "ranking.csv"
        write_ranking_csv(result, ["a", "b", "c"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "rank,node_label,score"
        scores = [float(line.split(",")[2]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)


class TestRankingOrder:
    def test_ranking_descending_with_index_tie_break(self):
        scores = np.array([0.5, 0.8, 0.5, 0.9])
        result = likeliness_scores(
            path_graph(4), [1.0, 1.0, 1.0, 1.0], NAIVE
        )
        # equal data entries: naive scores all equal, ranking is identity
        assert result.ranking.tolist() == [0, 1, 2, 3]

    def test_rejects_invalid_ranking(self):
        # The ranking is derived from the scores, so none can be given.
        with pytest.raises(TypeError, match="ranking"):
            LikelinessResult(np.zeros(3), ranking=np.array([0, 0, 2]))

    def test_ranking_is_derived_from_the_scores(self):
        result = LikelinessResult(np.array([0.5, 0.8, 0.5, 0.9]))
        assert result.ranking.tolist() == [3, 1, 0, 2]
        assert result.degenerate is False
        result = LikelinessResult(np.zeros(3), np.bool_(True))
        assert result.degenerate is True
        assert result.ranking.tolist() == [0, 1, 2]

    def test_rejects_non_vector_scores(self):
        with pytest.raises(ValueError, match="vector"):
            LikelinessResult(np.zeros((2, 2)))
