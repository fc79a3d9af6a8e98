"""Unit tests for the likelihood models and their brute-force reference."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlearn import models
from hamlearn.errors import DimensionMismatch, TooManyQubits
from hamlearn.models import (
    CLE,
    FULL_BASIS,
    IQLE,
    LIKELIHOOD_FLOOR,
    QLE,
    TWO_OUTCOME,
    ExperimentSpec,
    InteractionGraph,
    IsingModel,
    bitflip_wrap,
    dense_oracle_distribution,
    fwht,
    single_param_likelihood,
)
from hamlearn.simulate import LikelihoodEvaluator

# Graphs on which the likelihood kernel is checked against the dense oracle.
ORACLE_GRAPHS = {
    **{f"complete{n}": InteractionGraph.complete(n) for n in range(2, 7)},
    **{f"line{n}": InteractionGraph.line(n) for n in range(2, 7)},
    "star5": InteractionGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4))),
    "cycle5": InteractionGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    "forest5": InteractionGraph(5, ((0, 1), (2, 3))),  # qubit 4 is isolated
}
FOREST5_COMPONENTS = (0b00011, 0b01100, 0b10000)


def assert_kernel_matches_oracle(model, xs, t):
    """Every outcome of both measurements, for CLE and for IQLE with a zero
    inversion (so that the couplings reach the kernel unchanged)."""
    for kind, inversion in ((CLE, None), (IQLE, np.zeros(model.dimension))):
        for measurement in (FULL_BASIS, TWO_OUTCOME):
            spec = ExperimentSpec(kind, t, inversion, measurement)
            oracle = np.array([dense_oracle_distribution(model.graph, x, spec) for x in xs])
            for outcome in range(model.outcome_count(spec)):
                np.testing.assert_allclose(model.likelihood_many(outcome, xs, spec),
                                           oracle[:, outcome], rtol=0, atol=1e-12)


class TestInteractionGraph:
    def test_complete_edge_count(self):
        for n in (2, 3, 5, 8):
            assert InteractionGraph.complete(n).dimension == n * (n - 1) // 2

    def test_line_edge_count(self):
        for n in (2, 3, 5, 8):
            assert InteractionGraph.line(n).dimension == n - 1

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            InteractionGraph(3, ((1, 0),))  # unordered
        with pytest.raises(ValueError):
            InteractionGraph(3, ((0, 3),))  # out of range
        with pytest.raises(ValueError):
            InteractionGraph(3, ((0, 1), (0, 1)))  # duplicate
        with pytest.raises(ValueError):
            InteractionGraph(3, ())  # empty

    def test_rejects_non_integer_endpoints(self):
        # Endpoints were once truncated, so (0, 1.7) quietly became (0, 1).
        for edges in (((0, 1.7), (1.2, 2.9)), ((0, 1), (1, np.float64(2.0))),
                      ((0, 1), ("1", 2))):
            with pytest.raises(ValueError, match="non-integer endpoint"):
                InteractionGraph(3, edges)
        graph = InteractionGraph(np.int64(3), ((np.int64(0), np.int32(1)), (1, np.uint8(2))))
        assert graph.edges == ((0, 1), (1, 2))
        assert all(type(v) is int for edge in graph.edges for v in edge)


class TestExperimentSpec:
    def test_iqle_requires_inversion(self):
        with pytest.raises(ValueError):
            ExperimentSpec(IQLE, 1.0)

    def test_cle_forbids_inversion(self):
        with pytest.raises(ValueError):
            ExperimentSpec(CLE, 1.0, [0.1])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(QLE, -1.0)


class TestSingleParamLikelihood:
    def test_perfect_echo(self):
        assert single_param_likelihood(0, 0.3, 0.3, 17.0) == 1.0

    def test_quarter_turn(self):
        # 2 (x - x_inv) t = pi / 2 makes both outcomes equally likely
        assert single_param_likelihood(0, 0.5, 0.0, math.pi / 2) == pytest.approx(0.5)

    def test_direct_evaluation(self):
        assert single_param_likelihood(1, 0.25, 0.0, math.pi) == pytest.approx(0.5)

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_outcomes_sum_to_one(self, x, x_inv, t):
        total = single_param_likelihood(0, x, x_inv, t) + single_param_likelihood(1, x, x_inv, t)
        assert total == pytest.approx(1.0, abs=1e-15)


class TestIsingEnergy:
    def test_all_up_sums_couplings(self):
        graph = InteractionGraph.complete(4)
        x = np.arange(1.0, 7.0)
        assert IsingModel(graph).energies(x)[0] == pytest.approx(x.sum())

    def test_opposite_spins_single_edge(self):
        graph = InteractionGraph(2, ((0, 1),))
        # "01": qubit 0 up, qubit 1 down -> state index 0b10.
        assert IsingModel(graph).energies([0.5])[0b10] == pytest.approx(-0.5)

    def test_matches_dense_diagonal(self):
        from hamlearn.models import _dense_energy_diagonal

        rng = np.random.default_rng(0)
        graph = InteractionGraph.complete(4)
        x = rng.uniform(-0.5, 0.5, graph.dimension)
        np.testing.assert_allclose(
            IsingModel(graph).energies(x), _dense_energy_diagonal(graph, x), rtol=0, atol=1e-12
        )

    def test_string_and_int_agree(self):
        graph = InteractionGraph.line(3)
        x = [0.2, -0.4]
        # "011" -> qubit0=0, qubit1=1, qubit2=1 -> int with bit k = qubit k
        spins = [1 - 2 * int(c) for c in "011"]
        direct = sum(w * spins[i] * spins[j] for w, (i, j) in zip(x, graph.edges))
        assert IsingModel(graph).energies(x)[0b110] == pytest.approx(direct)


class TestFwht:
    def test_two_point(self):
        np.testing.assert_allclose(fwht([3.0, 1.0]), [4.0, 2.0])

    def test_matches_character_sum(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        direct = np.array(
            [
                sum(v[z] * (-1) ** bin(d & z).count("1") for z in range(8))
                for d in range(8)
            ]
        )
        np.testing.assert_allclose(fwht(v), direct, atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht([1.0, 2.0, 3.0])


class TestIsingModel:
    def test_perfect_echo(self):
        rng = np.random.default_rng(2)
        graph = InteractionGraph.complete(4)
        model = IsingModel(graph)
        x = rng.uniform(-0.5, 0.5, graph.dimension)
        for t in (0.3, 4.0, 250.0):
            dist = model.outcome_distribution(x, ExperimentSpec(IQLE, t, x, FULL_BASIS))
            assert dist[0] == pytest.approx(1.0, abs=1e-12)
            assert np.max(dist[1:]) < 1e-12

    def test_no_evolution(self):
        graph = InteractionGraph.line(3)
        model = IsingModel(graph)
        dist = model.outcome_distribution([0.4, -0.2], ExperimentSpec(QLE, 0.0))
        assert dist[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        graph = InteractionGraph.complete(3)
        model = IsingModel(graph)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 3)
            inversion = rng.uniform(-0.5, 0.5, 3)
            t = rng.uniform(0.01, 100.0)
            spec = ExperimentSpec(IQLE, t, inversion, FULL_BASIS)
            np.testing.assert_allclose(
                model.outcome_distribution(x, spec),
                dense_oracle_distribution(graph, x, spec),
                atol=1e-9,
            )

    def test_distribution_normalized_all_kinds(self):
        rng = np.random.default_rng(4)
        graph = InteractionGraph.line(5)
        model = IsingModel(graph)
        x = rng.uniform(-0.5, 0.5, graph.dimension)
        inversion = rng.uniform(-0.5, 0.5, graph.dimension)
        for kind, inv in ((CLE, None), (QLE, None), (IQLE, inversion)):
            for measurement in (FULL_BASIS, TWO_OUTCOME):
                spec = ExperimentSpec(kind, 7.7, inv, measurement)
                dist = model.outcome_distribution(x, spec)
                assert abs(dist.sum() - 1.0) < 1e-10
                assert np.all(dist >= 0)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        graph = InteractionGraph.complete(3)
        model = IsingModel(graph)
        xs = rng.uniform(-0.5, 0.5, (30, 3))
        spec = ExperimentSpec(IQLE, 11.0, rng.uniform(-0.5, 0.5, 3), FULL_BASIS)
        for outcome in (0, 5):
            many = model.likelihood_many(outcome, xs, spec)
            each = np.array([model.likelihood(outcome, x, spec) for x in xs])
            np.testing.assert_allclose(many, each, rtol=1e-12)

    def test_chunking_consistent(self, monkeypatch):
        # line(4) takes the unchunked forest kernel; complete(4) the chunk loop.
        for graph in (InteractionGraph.line(4), InteractionGraph.complete(4)):
            rng = np.random.default_rng(6)
            model = IsingModel(graph)
            xs = rng.uniform(-0.5, 0.5, (100, graph.dimension))
            spec = ExperimentSpec(QLE, 3.0)
            default = [model.likelihood_many(outcome, xs, spec) for outcome in range(16)]
            with monkeypatch.context() as patch:
                patch.setattr(models, "CHUNK_ELEMENTS", 64)
                small = [model.likelihood_many(outcome, xs, spec) for outcome in range(16)]
            for ours, theirs in zip(default, small):
                np.testing.assert_array_equal(ours, theirs)

    def test_default_chunks_match_one_chunk(self, monkeypatch):
        # complete(8) splits 600 particles into two chunks at the default cap.
        rng = np.random.default_rng(7)
        graph = InteractionGraph.complete(8)
        model = IsingModel(graph)
        xs = rng.uniform(-0.5, 0.5, (600, graph.dimension))
        spec = ExperimentSpec(IQLE, 9.0, rng.uniform(-0.5, 0.5, graph.dimension), FULL_BASIS)
        default = [model.likelihood_many(outcome, xs, spec) for outcome in (0, 3, 255)]
        monkeypatch.setattr(models, "CHUNK_ELEMENTS", 2**22)
        for outcome, ours in zip((0, 3, 255), default):
            np.testing.assert_array_equal(ours, model.likelihood_many(outcome, xs, spec))

    @pytest.mark.parametrize("name", ["complete3", "complete4", "complete6", "line6", "cycle5",
                                      "forest5"])
    def test_two_outcome_matches_full_transform_bitwise(self, name):
        # The return probability sums only W[0]; it must be the full
        # transform's entry 0 bit for bit, or sampled datum draws would move.
        graph = ORACLE_GRAPHS[name]
        model = IsingModel(graph)
        rng = np.random.default_rng(14)
        for _ in range(200):
            x = rng.uniform(-0.5, 0.5, graph.dimension)
            inversion = rng.uniform(-0.5, 0.5, graph.dimension)
            t = rng.uniform(0.001, 100.0)
            full = model.outcome_distribution(x, ExperimentSpec(IQLE, t, inversion, FULL_BASIS))
            two = model.outcome_distribution(x, ExperimentSpec(IQLE, t, inversion, TWO_OUTCOME))
            p0 = min(float(full[0]), 1.0)
            assert two.tobytes() == np.array([p0, 1.0 - p0]).tobytes()

    @pytest.mark.parametrize("name", ["line5", "star5", "forest5", "star9", "complete4",
                                      "cycle5"])
    def test_c_and_f_ordered_particles_agree_bitwise(self, name):
        # Clouds hand the kernel coupling-major (F-ordered) positions; a
        # caller's C-ordered rows must give the same likelihoods bit for bit,
        # for every outcome and both measurements.  star9 has eight edges,
        # enough for numpy's pairwise sum to reorder a row-wise edge sum.
        graph = ORACLE_GRAPHS.get(name) or InteractionGraph(9, tuple((0, j) for j in range(1, 9)))
        model = IsingModel(graph)
        rng = np.random.default_rng(15)
        rows = rng.uniform(-0.5, 0.5, (300, graph.dimension))
        columns = np.asfortranarray(rows)
        for spec in (ExperimentSpec(QLE, 6.0), ExperimentSpec(IQLE, 11.0, rows[0] + 0.01)):
            for measurement in (FULL_BASIS, TWO_OUTCOME):
                spec = replace(spec, measurement=measurement)
                for outcome in range(model.outcome_count(spec)):
                    ours = model.likelihood_many(outcome, columns, spec)
                    assert ours.tobytes() == model.likelihood_many(outcome, rows, spec).tobytes()

    def test_kernel_follows_graph(self):
        for name, graph in ORACLE_GRAPHS.items():
            forest = name.startswith(("line", "star", "forest")) or name == "complete2"
            assert IsingModel(graph).kernel == ("forest" if forest else "half-table")

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_likelihood_many_matches_oracle(self, name):
        graph = ORACLE_GRAPHS[name]
        components = FOREST5_COMPONENTS if name == "forest5" else (2**graph.n - 1,)
        model = IsingModel(graph)
        rng = np.random.default_rng(13)
        for kind in (CLE, QLE, IQLE):
            for measurement in (FULL_BASIS, TWO_OUTCOME):
                for t in (0.0, rng.uniform(0.01, 1.0), rng.uniform(1.0, 100.0), 100.0):
                    inversion = rng.uniform(-0.5, 0.5, graph.dimension) if kind == IQLE else None
                    spec = ExperimentSpec(kind, t, inversion, measurement)
                    xs = rng.uniform(-0.5, 0.5, (4, graph.dimension))
                    oracle = np.array([dense_oracle_distribution(graph, x, spec) for x in xs])
                    for outcome in range(model.outcome_count(spec)):
                        got = model.likelihood_many(outcome, xs, spec)
                        np.testing.assert_allclose(got, oracle[:, outcome], rtol=0, atol=1e-12)
                        if measurement == FULL_BASIS and any(
                            bin(outcome & mask).count("1") % 2 for mask in components
                        ):
                            assert np.all(got == LIKELIHOOD_FLOOR)

    @pytest.mark.parametrize("name", ["line5", "complete5", "cycle5"])
    def test_likelihood_many_matches_oracle_at_t_max(self, name):
        # At t = 1e6 both sides lose about 1e-10 to rounding of the energies.
        graph = ORACLE_GRAPHS[name]
        model = IsingModel(graph)
        rng = np.random.default_rng(14)
        xs = rng.uniform(-0.5, 0.5, (8, graph.dimension))
        spec = ExperimentSpec(IQLE, 1e6, rng.uniform(-0.5, 0.5, graph.dimension))
        oracle = np.array([dense_oracle_distribution(graph, x, spec) for x in xs])
        for outcome in range(2**graph.n):
            np.testing.assert_allclose(model.likelihood_many(outcome, xs, spec),
                                       oracle[:, outcome], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("name", ["line4", "star5", "forest5"])
    def test_forest_kernel_at_tan_pole(self, name):
        # The forest kernel takes tan(delta_e t), which has a pole where
        # delta_e t = pi/2; the doubled times put the pole at 2 * (pi/4) and
        # 3 * (pi/2), and t = 0 sits at tan's zero.
        graph = ORACLE_GRAPHS[name]
        model = IsingModel(graph)
        rng = np.random.default_rng(15)
        for t, pole in ((1.0, np.pi / 2), (2.0, np.pi / 4), (3.0, np.pi / 2), (0.0, np.pi / 2)):
            xs = rng.uniform(-0.5, 0.5, (3, graph.dimension))
            xs[0, 0] = pole
            xs[1, -1] = -pole
            xs[2, :] = pole
            assert_kernel_matches_oracle(model, xs, t)

    @pytest.mark.parametrize("name", ["complete3", "complete4", "cycle5"])
    def test_half_table_kernel_at_tan_pole(self, name):
        # The half table takes tan(phi/2), which has a pole where phi = pi:
        # every phase is +-pi in the first row, and pi, 0 or -pi in the second.
        graph = ORACLE_GRAPHS[name]
        model = IsingModel(graph)
        rng = np.random.default_rng(16)
        for t in (1.0, 0.0):
            xs = rng.uniform(-0.5, 0.5, (4, graph.dimension))
            xs[0, :] = 0.0
            xs[0, 0] = np.pi
            xs[1, :] = 0.0
            xs[1, :2] = np.pi / 2
            xs[2, :] = np.pi / 2
            assert_kernel_matches_oracle(model, xs, t)

    @given(st.integers(2, 6), st.data(), st.floats(0.0, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_full_basis_likelihoods_sum_to_one(self, n, data, t):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        graph = InteractionGraph(n, tuple(sorted(edges)))
        model = IsingModel(graph)
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        xs = rng.uniform(-0.5, 0.5, (5, graph.dimension))
        spec = ExperimentSpec(IQLE, t, rng.uniform(-0.5, 0.5, graph.dimension))
        total = sum(model.likelihood_many(d, xs, spec) for d in range(2**n))
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("delta", [1e-9, 1e-6])
    def test_two_outcome_complement_without_cancellation(self, delta):
        # Near a perfect echo P(1) = sum_e sin^2(delta_e t) + O(delta^4); the
        # differences below are exact in floating point (Sterbenz).
        model = IsingModel(InteractionGraph.line(3))
        inversion = np.array([0.3, -0.2])
        x = inversion + delta
        spec = ExperimentSpec(IQLE, 1.0, inversion, TWO_OUTCOME)
        expected = float(np.sum((x - inversion) ** 2))
        got = model.likelihood_many(1, x[None, :], spec)[0]
        assert got == pytest.approx(expected, rel=1e-8, abs=0)

    def test_two_outcome_return_bound(self):
        # P(return) >= max(0, 1 - 2 ||H - H_inv|| t)^2 with the exact
        # operator norm, which for diagonal Hamiltonians is max |dE(z)|.
        rng = np.random.default_rng(7)
        graph = InteractionGraph.complete(4)
        model = IsingModel(graph)
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, graph.dimension)
            inversion = rng.uniform(-0.5, 0.5, graph.dimension)
            norm = np.max(np.abs(model.energies(x - inversion)))
            t = rng.uniform(0.0, 0.5) / max(norm, 1e-12)
            spec = ExperimentSpec(IQLE, t, inversion, TWO_OUTCOME)
            bound = max(0.0, 1.0 - 2.0 * norm * t) ** 2
            assert model.outcome_distribution(x, spec)[0] >= bound - 1e-12

    def test_qubit_cap(self):
        with pytest.raises(TooManyQubits):
            IsingModel(InteractionGraph.line(15))

    def test_wrong_dimension_rejected(self):
        model = IsingModel(InteractionGraph.line(3))
        with pytest.raises(DimensionMismatch):
            model.outcome_distribution([0.1, 0.2, 0.3], ExperimentSpec(QLE, 1.0))


class TestDenseOracle:
    def test_zero_coupling_concentrates(self):
        graph = InteractionGraph(2, ((0, 1),))
        dist = dense_oracle_distribution(graph, [0.0], ExperimentSpec(QLE, 5.0))
        assert dist[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_qubit_cosine_family(self):
        # For one edge the X-basis distribution is
        # [cos^2(xt), 0, 0, sin^2(xt)]: parity of the outcome string is
        # conserved, and the return probability is (1 + cos 2xt) / 2.
        graph = InteractionGraph(2, ((0, 1),))
        x, t = 0.5, math.pi
        dist = dense_oracle_distribution(graph, [x], ExperimentSpec(CLE, t))
        expected0 = 0.5 * (1 + math.cos(2 * x * t))
        assert dist[0] == pytest.approx(expected0, abs=1e-12)
        assert dist[1] == pytest.approx(0.0, abs=1e-12)
        assert dist[2] == pytest.approx(0.0, abs=1e-12)
        assert dist[3] == pytest.approx(1 - expected0, abs=1e-12)

    def test_line_vs_fast_path(self):
        rng = np.random.default_rng(8)
        graph = InteractionGraph.line(3)
        model = IsingModel(graph)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 2)
            spec = ExperimentSpec(IQLE, rng.uniform(0.1, 60.0), rng.uniform(-0.5, 0.5, 2))
            np.testing.assert_allclose(
                dense_oracle_distribution(graph, x, spec),
                model.outcome_distribution(x, spec),
                atol=1e-9,
            )

    def test_qubit_cap(self):
        with pytest.raises(TooManyQubits):
            dense_oracle_distribution(
                InteractionGraph.line(7), np.zeros(6), ExperimentSpec(QLE, 1.0)
            )


class TestCrossModelConsistency:
    def test_single_param_equals_two_qubit_pair(self):
        rng = np.random.default_rng(9)
        pair = IsingModel(InteractionGraph(2, ((0, 1),)))
        for _ in range(50):
            x, x_inv = rng.uniform(-0.5, 0.5, 2)
            spec = ExperimentSpec(IQLE, rng.uniform(0.01, 50.0), [x_inv], TWO_OUTCOME)
            for outcome in (0, 1):
                assert pair.likelihood(outcome, [x], spec) == pytest.approx(
                    single_param_likelihood(outcome, x, x_inv, spec.time), abs=1e-12
                )


class TestBitflipWrap:
    def test_identity_at_zero(self):
        assert bitflip_wrap(0.0, 0.37) == 0.37

    def test_full_depolarization(self):
        assert bitflip_wrap(0.5, 0.9) == pytest.approx(0.5)
        assert bitflip_wrap(0.5, 0.1) == pytest.approx(0.5)

    def test_arithmetic(self):
        assert bitflip_wrap(0.1, 0.9) == pytest.approx(0.82)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            bitflip_wrap(0.6, 0.5)

    @given(st.floats(0, 0.5), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_preserves_two_outcome_normalization(self, alpha, p):
        assert bitflip_wrap(alpha, p) + bitflip_wrap(alpha, 1 - p) == pytest.approx(1.0)

    @given(st.floats(0, 0.5), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_range(self, alpha, p):
        wrapped = bitflip_wrap(alpha, p)
        assert alpha - 1e-12 <= wrapped <= 1 - alpha + 1e-12


class TestNoisyLikelihood:
    """Gaussian likelihood noise of the `noisy_exact` evaluator on the one-coupling echo."""

    def test_zero_noise_identity(self):
        rng = np.random.default_rng(10)
        model = IsingModel(InteractionGraph.line(2))
        spec = ExperimentSpec(IQLE, 1.0, [0.3], TWO_OUTCOME)
        xs = np.array([[0.37], [-0.1], [0.3]])
        evaluator = LikelihoodEvaluator(model, "noisy_exact", noise=0.0)
        np.testing.assert_array_equal(evaluator.likelihood_many(0, xs, spec, rng=rng),
                                      model.likelihood_many(0, xs, spec))

    def test_center_unbiased(self):
        # With p = 0.5 clipping is negligible: the sample mean of 1e6 draws
        # must land within 5 standard errors of p.
        rng = np.random.default_rng(11)
        spec = ExperimentSpec(IQLE, np.pi / 2, [0.0], TWO_OUTCOME)
        evaluator = LikelihoodEvaluator(IsingModel(InteractionGraph.line(2)), "noisy_exact",
                                        noise=0.1)
        draws = evaluator.likelihood_many(0, np.full((1_000_000, 1), 0.5), spec, rng=rng)
        assert abs(draws.mean() - 0.5) < 5e-4

    def test_clipping_at_one(self):
        rng = np.random.default_rng(12)
        spec = ExperimentSpec(IQLE, 5.0, [0.2], TWO_OUTCOME)  # perfect echo: p = 1
        evaluator = LikelihoodEvaluator(IsingModel(InteractionGraph.line(2)), "noisy_exact",
                                        noise=0.1)
        draws = evaluator.likelihood_many(0, np.full((10_000, 1), 0.2), spec, rng=rng)
        assert np.all(draws <= 1.0)
        assert np.all(draws >= LIKELIHOOD_FLOOR)
