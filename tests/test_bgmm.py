import numpy as np
import pytest
from scipy.integrate import quad

from clbgmm.bgmm import (
    BgmmConfig,
    FittedMixture,
    effective_components,
    elbo,
    fit,
    log_likelihood,
)
from clbgmm.errors import ValidationError

from _oracles import classical_em


def two_cluster_data(seed=0, n=100, centers=((0.0, 0.0), (10.0, 10.0))):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(c, 1.0, size=(n, 2)) for c in centers])


class TestConfig:
    def test_rejects_bad_covariance_type(self):
        with pytest.raises(ValidationError):
            BgmmConfig(covariance_type="banana").validate()

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValidationError):
            BgmmConfig(variance_floor=0.0).validate()

    def test_roundtrip(self):
        cfg = BgmmConfig(max_components=4, covariance_type="full")
        assert BgmmConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("setting", [
        {"max_components": "x"}, {"max_components": 2.0}, {"covariance_type": 1},
        {"variance_floor": True}, {"weight_concentration_prior": "x"}, {"elbo_tolerance": None},
        {"bogus": 1},
    ])
    def test_from_dict_names_bad_setting(self, setting):
        with pytest.raises(ValidationError, match=repr(next(iter(setting)))):
            BgmmConfig.from_dict(setting)

    def test_from_dict_accepts_ints_for_floats_and_null_derived_values(self):
        cfg = BgmmConfig.from_dict({"variance_floor": 1, "precision_prior_rate": None})
        assert cfg == BgmmConfig(variance_floor=1)


class TestFit:
    def test_degenerate_point_cloud(self):
        X = np.tile([1.0, 2.0], (50, 1))
        mix, _ = fit(X, BgmmConfig(max_components=5), seed=0)
        assert mix.n_components == 1
        assert np.allclose(mix.means[0], [1.0, 2.0], atol=1e-6)
        assert np.allclose(mix.covariances[0], 1e-6)

    def test_two_clusters_recovered_against_em_oracle(self):
        X = two_cluster_data(seed=3)
        mix, _ = fit(X, BgmmConfig(max_components=8), seed=7)
        assert mix.n_components == 2
        _, em_means, _ = classical_em(X, 2, seed=7)
        # match components to the oracle's means before comparing
        for m in mix.means:
            assert min(np.linalg.norm(m - em) for em in em_means) < 0.5

    def test_same_seed_bit_identical(self):
        X = two_cluster_data(seed=1)
        a, _ = fit(X, BgmmConfig(max_components=8), seed=42)
        b, _ = fit(X, BgmmConfig(max_components=8), seed=42)
        assert a.to_bytes() == b.to_bytes()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            fit([[0.0, np.nan]], BgmmConfig(), seed=0)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            fit(np.empty((0, 2)), BgmmConfig(), seed=0)

    def test_weights_on_simplex(self):
        X = two_cluster_data(seed=2)
        for ct in ("spherical", "diagonal", "full"):
            mix, _ = fit(X, BgmmConfig(max_components=6, covariance_type=ct), seed=1)
            assert abs(mix.weights.sum() - 1.0) < 1e-9
            assert np.all(mix.weights > 0)

    def test_variance_floor_respected(self):
        X = two_cluster_data(seed=4)
        floor = 0.5
        for ct in ("spherical", "diagonal", "full"):
            mix, _ = fit(X, BgmmConfig(max_components=4, covariance_type=ct,
                                       variance_floor=floor), seed=1)
            if ct == "full":
                for c in mix.covariances:
                    assert np.linalg.eigvalsh(c).min() >= floor - 1e-12
            else:
                assert np.min(mix.covariances) >= floor - 1e-12

    def test_permutation_invariance(self):
        X = two_cluster_data(seed=5)
        rng = np.random.default_rng(9)
        Xs = X[rng.permutation(X.shape[0])]
        a, _ = fit(X, BgmmConfig(max_components=6), seed=11)
        b, _ = fit(Xs, BgmmConfig(max_components=6), seed=11)
        assert np.allclose(np.sort(a.means, axis=0), np.sort(b.means, axis=0), atol=1e-6)

    def test_restarts_deterministic(self):
        X = two_cluster_data(seed=6)
        a, _ = fit(X, BgmmConfig(max_components=6, n_restarts=3), seed=2)
        b, _ = fit(X, BgmmConfig(max_components=6, n_restarts=3), seed=2)
        assert a.to_bytes() == b.to_bytes()


class TestElbo:
    def test_trace_non_decreasing(self):
        X = two_cluster_data(seed=8)
        for ct in ("spherical", "diagonal", "full"):
            _, state = fit(X, BgmmConfig(max_components=8, covariance_type=ct), seed=3)
            trace = np.asarray(state.elbo_trace)
            assert np.all(np.diff(trace) >= -1e-8)

    def test_elbo_equals_last_trace_entry(self):
        _, state = fit(two_cluster_data(seed=9), BgmmConfig(max_components=4), seed=0)
        assert elbo(state) == state.elbo_trace[-1]

    def test_final_at_least_first(self):
        _, state = fit(two_cluster_data(seed=10), BgmmConfig(max_components=4), seed=0)
        assert state.elbo_trace[-1] >= state.elbo_trace[0] - 1e-8


class TestEffectiveComponents:
    def test_one_cluster(self):
        rng = np.random.default_rng(0)
        _, state = fit(rng.normal(0, 1, (120, 2)), BgmmConfig(max_components=5), seed=1)
        assert effective_components(state, 0.01) == 1

    def test_two_clusters(self):
        _, state = fit(two_cluster_data(seed=11), BgmmConfig(max_components=8), seed=1)
        assert effective_components(state, 0.01) == 2

    def test_zero_threshold_counts_everything(self):
        _, state = fit(two_cluster_data(seed=12), BgmmConfig(max_components=8), seed=1)
        assert effective_components(state, 0.0) == 8


class TestLogLikelihood:
    def test_standard_normal_at_mean(self):
        mix = FittedMixture(
            weights=np.array([1.0]), means=np.array([[0.0]]),
            covariances=np.array([[1.0]]), covariance_type="diagonal", metadata={})
        assert log_likelihood(mix, [0.0]) == pytest.approx(-0.9189385, abs=1e-6)

    def test_mixture_collapse_identity(self):
        one = FittedMixture(
            weights=np.array([1.0]), means=np.array([[1.0, 2.0]]),
            covariances=np.array([[1.0, 2.0]]), covariance_type="diagonal", metadata={})
        two = FittedMixture(
            weights=np.array([0.5, 0.5]), means=np.array([[1.0, 2.0], [1.0, 2.0]]),
            covariances=np.array([[1.0, 2.0], [1.0, 2.0]]),
            covariance_type="diagonal", metadata={})
        x = [0.3, -1.0]
        assert log_likelihood(one, x) == pytest.approx(log_likelihood(two, x), abs=1e-12)

    def test_fitted_clusters_ordering(self):
        mix, _ = fit(two_cluster_data(seed=13), BgmmConfig(max_components=8), seed=1)
        assert log_likelihood(mix, [0.0, 0.0]) > log_likelihood(mix, [5.0, 5.0])

    def test_dimension_mismatch(self):
        mix, _ = fit(two_cluster_data(seed=14), BgmmConfig(max_components=4), seed=1)
        with pytest.raises(ValidationError):
            log_likelihood(mix, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_density_integrates_to_one_1d(self, ct):
        rng = np.random.default_rng(21)
        X = rng.normal(3.0, 2.0, size=(80, 1))
        mix, _ = fit(X, BgmmConfig(max_components=4, covariance_type=ct), seed=5)
        sigma = float(np.sqrt(np.max(mix.covariances)))
        lo = float(mix.means.min()) - 10 * sigma
        hi = float(mix.means.max()) + 10 * sigma
        total, _ = quad(lambda x: np.exp(log_likelihood(mix, [x])), lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-3)
