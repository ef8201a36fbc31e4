import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiprofiler import profiler
from epiprofiler.data_ingest import SARS_CASES_FILE, bundled_data_path, load_case_series
from epiprofiler.network import (
    UNREACHABLE,
    DistanceMatrix,
    Network,
    generate_erdos_renyi,
    hop_distances,
    mobility_matrix,
)
from epiprofiler.profiler import (
    DecayKind,
    DecayProfile,
    DecaySpec,
    LikelinessResult,
    decay_weight,
    hit_score,
    likeliness_scores,
)
from epiprofiler.simulator import Dataset, EpidemicParams, InitialCondition, ObservableKind, simulate

NAIVE = DecaySpec(DecayKind.NAIVE)
POLY_HALF = DecaySpec(DecayKind.POLYNOMIAL, 0.5)
ALL_KINDS = [
    NAIVE,
    DecaySpec(DecayKind.POWER, 2.0),
    POLY_HALF,
    DecaySpec(DecayKind.EXPONENTIAL, 0.05),
]


def path_distances(n):
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return DistanceMatrix(d)


def new_cases(values):
    return Dataset(np.asarray(values, dtype=float), ObservableKind.NEW_CASES)


from oracles import decay_weights, oracle_scores, scalar_weight


class TestDecaySpec:
    def test_naive_rejects_param(self):
        with pytest.raises(ValueError, match="naive"):
            DecaySpec(DecayKind.NAIVE, 1.0)

    @pytest.mark.parametrize("kind", [DecayKind.POWER, DecayKind.POLYNOMIAL, DecayKind.EXPONENTIAL])
    def test_param_required_and_positive(self, kind):
        with pytest.raises(ValueError):
            DecaySpec(kind)
        with pytest.raises(ValueError):
            DecaySpec(kind, -0.5)

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
        result = likeliness_scores(path_distances(3), new_cases([0, 1, 0]), POLY_HALF)
        # candidate 1 profile norm is sqrt(2); ends tie below it
        assert result.scores[1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert result.scores[0] == pytest.approx(0.52223, abs=1e-5)
        assert result.scores[2] == pytest.approx(0.52223, abs=1e-5)
        assert result.ranking.tolist() == [1, 0, 2]
        assert not result.degenerate

    def test_naive_reduces_to_normalized_data(self):
        values = np.array([0.0, 7.0, 0.0, 3.0])
        dist = hop_distances(generate_erdos_renyi(4, 2.0, seed=2))
        result = likeliness_scores(dist, new_cases(values), NAIVE)
        np.testing.assert_allclose(result.scores, values / np.linalg.norm(values), rtol=1e-12)
        assert result.ranking[0] == 1  # argmax of the data ranks first

    def test_degenerate_all_zero(self):
        result = likeliness_scores(path_distances(4), new_cases([0, 0, 0, 0]), POLY_HALF)
        assert result.degenerate
        assert np.all(result.scores == 0.0)
        assert result.ranking.tolist() == [0, 1, 2, 3]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="nodes"):
            likeliness_scores(path_distances(3), new_cases([1, 2]), NAIVE)

    def test_scores_within_unit_interval_for_nonnegative_data(self):
        dist = hop_distances(generate_erdos_renyi(30, 2.0, seed=3))
        rng = np.random.default_rng(4)
        result = likeliness_scores(dist, new_cases(rng.random(30)), POLY_HALF)
        assert np.all(result.scores >= 0.0)
        assert np.all(result.scores <= 1.0 + 1e-12)

    @pytest.mark.parametrize("spec", ALL_KINDS)
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_extended_precision_oracle(self, spec, seed):
        rng = np.random.default_rng((41, seed))
        n = int(rng.integers(2, 9))
        net = generate_erdos_renyi(n, min(float(n) - 1, 2.0), seed=(42, seed))
        dist = hop_distances(net)
        values = rng.integers(0, 20, size=n).astype(float)
        if values.sum() == 0:
            values[0] = 1.0
        result = likeliness_scores(dist, new_cases(values), spec)
        np.testing.assert_allclose(result.scores, oracle_scores(dist, values, spec), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(exponent=st.integers(min_value=-120, max_value=120))
    def test_scale_invariance_exact_for_binary_scales(self, exponent):
        # powers of two rescale floats without rounding, so invariance is bitwise
        dist = hop_distances(generate_erdos_renyi(12, 2.0, seed=6))
        values = np.arange(12, dtype=float)
        base = likeliness_scores(dist, new_cases(values), POLY_HALF)
        scaled = likeliness_scores(dist, new_cases(values * 2.0**exponent), POLY_HALF)
        np.testing.assert_array_equal(base.scores, scaled.scores)
        np.testing.assert_array_equal(base.ranking, scaled.ranking)

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance_up_to_input_rounding(self, scale):
        dist = hop_distances(generate_erdos_renyi(12, 2.0, seed=6))
        values = np.arange(12, dtype=float)
        base = likeliness_scores(dist, new_cases(values), POLY_HALF)
        scaled = likeliness_scores(dist, new_cases(values * scale), POLY_HALF)
        np.testing.assert_allclose(scaled.scores, base.scores, rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_permutation_equivariance(self, data):
        n = 9
        net = generate_erdos_renyi(n, 2.0, seed=51)
        values = np.array([3.0, 0.0, 5.0, 1.0, 0.0, 2.0, 8.0, 0.0, 1.0])
        perm = np.array(data.draw(st.permutations(range(n))))
        for spec in ALL_KINDS:
            base = likeliness_scores(hop_distances(net), new_cases(values), spec)
            relabeled = Network(net.adjacency[np.ix_(perm, perm)])
            permuted = likeliness_scores(
                hop_distances(relabeled), new_cases(values[perm]), spec
            )
            np.testing.assert_allclose(permuted.scores, base.scores[perm], atol=1e-12)

    @pytest.mark.parametrize("kind,param", [(DecayKind.POLYNOMIAL, 50.0), (DecayKind.EXPONENTIAL, 50.0)])
    def test_large_parameter_converges_to_naive(self, kind, param):
        dist = hop_distances(generate_erdos_renyi(15, 2.0, seed=9))
        values = np.array([0.0, 4, 1, 0, 2, 7, 0, 0, 3, 1, 0, 5, 2, 0, 1], dtype=float)
        sharp = likeliness_scores(dist, new_cases(values), DecaySpec(kind, param))
        naive = likeliness_scores(dist, new_cases(values), NAIVE)
        assert np.max(np.abs(sharp.scores - naive.scores)) < 1e-6

    def test_interchangeable_nodes_tie(self):
        # star: all leaves interchangeable; data symmetric under leaf swaps.
        # Summation order differs per row, so ties hold to accumulation noise.
        adj = np.zeros((4, 4), dtype=int)
        adj[0, 1:] = adj[1:, 0] = 1
        dist = hop_distances(Network(adj))
        result = likeliness_scores(dist, new_cases([5.0, 1.0, 1.0, 1.0]), POLY_HALF)
        assert result.scores[1] == pytest.approx(result.scores[2], abs=1e-13)
        assert result.scores[1] == pytest.approx(result.scores[3], abs=1e-13)
        # and the tied leaves occupy adjacent ranking positions
        leaf_positions = sorted(np.where(np.isin(result.ranking, [1, 2, 3]))[0])
        assert leaf_positions == [1, 2, 3]

    def test_unreachable_candidates_score_low(self):
        # node 3 isolated: its profile is the unit vector at itself
        adj = np.zeros((4, 4), dtype=int)
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
        dist = hop_distances(Network(adj))
        result = likeliness_scores(dist, new_cases([4.0, 2.0, 1.0, 0.0]), POLY_HALF)
        assert result.scores[3] == 0.0


class TestDecayProfile:
    def test_row_norms_bitwise_equal_whole_matrix_norms(self):
        # n=300 spans two row blocks.
        dist = hop_distances(generate_erdos_renyi(300, 2.0, seed=17))
        for spec in ALL_KINDS:
            profile = DecayProfile.build(dist, spec)
            want = np.linalg.norm(decay_weights(spec, dist.d), axis=1)
            assert np.array_equal(profile.norms, want)

    def test_one_profile_scores_many_vectors(self):
        dist = hop_distances(generate_erdos_renyi(40, 2.0, seed=18))
        rng = np.random.default_rng(19)
        profile = DecayProfile.build(dist, POLY_HALF)
        values = rng.random((5, 40))
        values[2] = 0.0
        scores, degenerate = profile.score_batch(values)
        assert degenerate.tolist() == [False, False, True, False, False]
        for row, vector in enumerate(values):
            want = likeliness_scores(dist, new_cases(vector), POLY_HALF)
            assert np.array_equal(scores[row], want.scores)
            got = profile.score(vector)
            assert np.array_equal(got.scores, want.scores)
            assert np.array_equal(got.ranking, want.ranking)
            assert got.degenerate == want.degenerate == degenerate[row]

    def test_distances_below_unreachable_weigh_zero(self):
        d = np.array([[0, -5], [-1, 0]])
        profile = DecayProfile.build(DistanceMatrix(d), POLY_HALF)
        scores, _ = profile.score_batch(np.array([[1.0, 2.0]]))
        want = (decay_weights(POLY_HALF, d) @ [1.0, 2.0]) / math.sqrt(5.0)
        assert np.array_equal(scores[0], want)

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_scores_do_not_depend_on_block_size(self, spec, monkeypatch):
        # n=1031 spans 17 row blocks at the default block size.
        n = 1031
        dist = hop_distances(generate_erdos_renyi(n, 2.0, seed=21))
        values = np.random.default_rng(22).random((3, n))
        default = DecayProfile.build(dist, spec)
        want, _ = default.score_batch(values)
        for rows in (1, 8, n):
            monkeypatch.setattr(profiler, "_ROW_BLOCK_ELEMENTS", rows * n)
            profile = DecayProfile.build(dist, spec)
            got, _ = profile.score_batch(values)
            assert np.array_equal(profile.norms, default.norms)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_scores_do_not_depend_on_batch_size(self, spec):
        n = 300
        dist = hop_distances(generate_erdos_renyi(n, 2.0, seed=23))
        values = np.random.default_rng(24).random((9, n))
        profile = DecayProfile.build(dist, spec)
        stacked, _ = profile.score_batch(values)
        for lo, hi in ((0, 1), (1, 4), (4, 9)):
            part, _ = profile.score_batch(values[lo:hi])
            assert np.array_equal(part, stacked[lo:hi])
        for row, vector in enumerate(values):
            assert np.array_equal(profile.score(vector).scores, stacked[row])

    def test_scores_do_not_depend_on_blas_threads(self):
        script = (
            "import hashlib, numpy as np\n"
            "from epiprofiler.network import generate_erdos_renyi, hop_distances\n"
            "from epiprofiler.profiler import DecayKind, DecayProfile, DecaySpec\n"
            "dist = hop_distances(generate_erdos_renyi(700, 2.0, seed=25))\n"
            "values = np.random.default_rng(26).random((4, 700))\n"
            "h = hashlib.sha256()\n"
            "for spec in (DecaySpec(DecayKind.NAIVE), DecaySpec(DecayKind.POWER, 2.0),\n"
            "             DecaySpec(DecayKind.POLYNOMIAL, 0.5), DecaySpec(DecayKind.EXPONENTIAL, 0.05)):\n"
            "    profile = DecayProfile.build(dist, spec)\n"
            "    h.update(profile.score_batch(values)[0].tobytes())\n"
            "    h.update(profile.score(values[0]).scores.tobytes())\n"
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
        # 8 N^2 bytes, so building and scoring must gather weights by row
        # block.
        n = 600
        dist = hop_distances(generate_erdos_renyi(n, 2.0, seed=27))
        values = np.random.default_rng(28).random((4, n))
        DecayProfile.build(dist, POLY_HALF).score_batch(values)  # first-call imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            profile = DecayProfile.build(dist, POLY_HALF)
            for vector in values:
                profile.score(vector)
            profile.score_batch(values)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * n


class TestHitScore:
    def test_counts_ties_against_the_algorithm(self):
        result = LikelinessResult(np.array([0.3, 0.9, 0.9, 0.1, 0.5]), np.array([1, 2, 4, 0, 3]))
        assert hit_score(result.scores, 4) == pytest.approx(0.6)

    def test_unique_maximum_is_perfect(self):
        result = LikelinessResult(np.array([0.1, 0.9, 0.3]), np.array([1, 2, 0]))
        assert hit_score(result.scores, 1) == pytest.approx(1.0 / 3.0)

    def test_all_equal_scores_hit_everything(self):
        result = LikelinessResult(np.zeros(6), np.arange(6))
        assert hit_score(result.scores, 2) == 1.0

    def test_source_validation(self):
        result = LikelinessResult(np.zeros(3), np.arange(3))
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
            result = LikelinessResult(scores, np.lexsort((np.arange(n), -scores)))
            total += hit_score(result.scores, int(rng.integers(n)))
        assert total / trials == pytest.approx((n + 1) / (2 * n), abs=0.02)


ARRAY_DATACLASSES = {
    "Network": lambda: generate_erdos_renyi(5, 2.0, seed=1),
    "DistanceMatrix": lambda: hop_distances(generate_erdos_renyi(5, 2.0, seed=1)),
    "MobilityMatrix": lambda: mobility_matrix(generate_erdos_renyi(5, 2.0, seed=1), 0.2),
    "LikelinessResult": lambda: LikelinessResult.from_scores(np.array([0.3, 0.1, 0.3])),
    "DecayProfile": lambda: DecayProfile.build(path_distances(3), POLY_HALF),
    "Dataset": lambda: new_cases([1.0, 2.0, 0.0]),
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

        result = likeliness_scores(path_distances(3), new_cases([0, 1, 0]), POLY_HALF)
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
            path_distances(4), new_cases([1.0, 1.0, 1.0, 1.0]), NAIVE
        )
        # equal data entries: naive scores all equal, ranking is identity
        assert result.ranking.tolist() == [0, 1, 2, 3]

    def test_rejects_invalid_ranking(self):
        with pytest.raises(ValueError, match="permutation"):
            LikelinessResult(np.zeros(3), np.array([0, 0, 2]))
