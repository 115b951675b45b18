import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import cho_solve, cholesky, eigh, solve_triangular
from scipy.special import digamma, gammaln, logsumexp

from clbgmm import bgmm
from clbgmm.bgmm import (
    BgmmConfig,
    FittedMixture,
    fit,
    log_likelihood_batch,
)
from clbgmm.dataset import (
    ExperimentManifest,
    ModalitySpec,
    SyntheticConfig,
    build_task_sequence,
    generate_synthetic,
)
from clbgmm.ensemble import predict_batch
from clbgmm.errors import NumericalError, ValidationError
from clbgmm.protocol import run_continual

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

    def test_final_at_least_first(self):
        _, state = fit(two_cluster_data(seed=10), BgmmConfig(max_components=4), seed=0)
        assert state.elbo_trace[-1] >= state.elbo_trace[0] - 1e-8


class TestEffectiveComponents:
    def test_one_cluster(self):
        rng = np.random.default_rng(0)
        mix, _ = fit(rng.normal(0, 1, (120, 2)), BgmmConfig(max_components=5), seed=1)
        assert mix.n_components == 1

    def test_two_clusters(self):
        mix, _ = fit(two_cluster_data(seed=11), BgmmConfig(max_components=8), seed=1)
        assert mix.n_components == 2


class TestLogLikelihood:
    def test_standard_normal_at_mean(self):
        mix = FittedMixture(
            weights=np.array([1.0]), means=np.array([[0.0]]),
            covariances=np.array([[1.0]]), covariance_type="diagonal", metadata={})
        assert log_likelihood_batch(mix, [[0.0]])[0] == pytest.approx(-0.9189385, abs=1e-6)

    def test_mixture_collapse_identity(self):
        one = FittedMixture(
            weights=np.array([1.0]), means=np.array([[1.0, 2.0]]),
            covariances=np.array([[1.0, 2.0]]), covariance_type="diagonal", metadata={})
        two = FittedMixture(
            weights=np.array([0.5, 0.5]), means=np.array([[1.0, 2.0], [1.0, 2.0]]),
            covariances=np.array([[1.0, 2.0], [1.0, 2.0]]),
            covariance_type="diagonal", metadata={})
        x = [[0.3, -1.0]]
        assert log_likelihood_batch(one, x) == pytest.approx(log_likelihood_batch(two, x), abs=1e-12)

    def test_fitted_clusters_ordering(self):
        mix, _ = fit(two_cluster_data(seed=13), BgmmConfig(max_components=8), seed=1)
        at_center, between = log_likelihood_batch(mix, [[0.0, 0.0], [5.0, 5.0]])
        assert at_center > between

    def test_dimension_mismatch(self):
        mix, _ = fit(two_cluster_data(seed=14), BgmmConfig(max_components=4), seed=1)
        with pytest.raises(ValidationError):
            log_likelihood_batch(mix, [[0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_density_integrates_to_one_1d(self, ct):
        rng = np.random.default_rng(21)
        X = rng.normal(3.0, 2.0, size=(80, 1))
        mix, _ = fit(X, BgmmConfig(max_components=4, covariance_type=ct), seed=5)
        sigma = float(np.sqrt(np.max(mix.covariances)))
        lo = float(mix.means.min()) - 10 * sigma
        hi = float(mix.means.max()) + 10 * sigma
        total, _ = quad(lambda x: np.exp(log_likelihood_batch(mix, [[x]])[0]), lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-3)


class TestNumericalFailure:
    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_overflowing_data_raises(self, ct):
        X = np.random.default_rng(0).normal(size=(40, 2)) * 1e160
        with pytest.raises(NumericalError), np.errstate(over="ignore", invalid="ignore"):
            fit(X, BgmmConfig(max_components=3, covariance_type=ct), seed=0)

    def test_factor_names_non_finite_component(self):
        mats = np.stack([np.eye(2), np.eye(2), np.full((2, 2), np.inf)])
        with pytest.raises(NumericalError, match="component 2 is not finite"):
            bgmm._factor(mats, "test matrix")

    def test_factor_names_indefinite_component(self):
        mats = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(NumericalError, match="component 1 is not positive definite"):
            bgmm._factor(mats, "test matrix")

    def test_factor_matches_scipy_bit_for_bit(self):
        # C is scipy's factor bit for bit; C^-1 comes from trtri, not from a
        # triangular solve, so it matches solve_triangular(C, I) to rounding
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 7, 7))
        mats = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(7)
        mats = 0.5 * (mats + mats.transpose(0, 2, 1))
        low, low_inv = bgmm._factor(mats, "test matrix")
        for k in range(mats.shape[0]):
            ref = cholesky(mats[k], lower=True)
            assert np.array_equal(low[k], ref)
            ref_inv = solve_triangular(ref, np.eye(7), lower=True)
            np.testing.assert_allclose(low_inv[k], ref_inv, rtol=1e-12,
                                       atol=1e-13 * np.abs(ref_inv).max())
            assert np.array_equal(np.triu(low_inv[k], 1), np.zeros((7, 7)))


def _logsumexp_rows():
    value = st.one_of(
        st.sampled_from([-np.inf, np.nan, 0.0, 1.0, -2.5, 1e4, -1e4]),   # exact ties, -inf, NaN
        st.builds(lambda sign, mag: sign * mag, st.sampled_from([-1.0, 1.0]),
                  st.floats(1e-3, 1e4)),
    )
    return st.integers(1, 12).flatmap(lambda cols: st.lists(
        st.one_of(st.lists(value, min_size=cols, max_size=cols),
                  st.just([-np.inf] * cols)),
        min_size=1, max_size=8))


class TestLogsumexp:
    @settings(max_examples=300, deadline=None)
    @given(_logsumexp_rows())
    def test_bit_equal_to_scipy(self, rows):
        a = np.array(rows, dtype=np.float64)
        with np.errstate(all="ignore"):  # as its callers hold it
            got = bgmm._logsumexp(a)
        assert np.array_equal(got, logsumexp(a, axis=1), equal_nan=True)


# The per-component full-covariance iteration as it was before the batched
# rewrite, with scipy's cholesky/cho_solve/logsumexp: it inverts each inverse
# scale matrix and factors the result again, and it runs on the uncentred rows
# with a prior mean m0. The batched iteration derives everything from one
# factor per component, on rows centred on m0, so it matches this reference to
# rounding, not bit for bit.

def _loop_m_step(X, resp, pri, state):
    n, d = X.shape
    nk = resp.sum(axis=0) + 1e-12
    xbar = (resp.T @ X) / nk[:, None]
    state.alpha = pri.alpha0 + resp.sum(axis=0)
    state.beta = pri.beta0 + nk
    state.means = (pri.beta0 * pri.m0[None, :] + nk[:, None] * xbar) / state.beta[:, None]
    shrink = (pri.beta0 * nk / state.beta)
    dev = xbar - pri.m0[None, :]
    j = resp.shape[1]
    state.dof = pri.nu0 + nk
    state.w_inv = np.empty((j, d, d))
    scale = np.empty((j, d, d))
    for k in range(j):
        xc = X - xbar[k]
        scatter = (resp[:, k][:, None] * xc).T @ xc
        w_inv = pri.w0_inv + scatter + shrink[k] * np.outer(dev[k], dev[k])
        state.w_inv[k] = 0.5 * (w_inv + w_inv.T)
        low = cholesky(state.w_inv[k], lower=True)
        w = cho_solve((low, True), np.eye(d))
        scale[k] = 0.5 * (w + w.T)
    return scale


def _loop_expected_log_density(X, state, scale):
    n, d = X.shape
    elog_pi = digamma(state.alpha) - digamma(state.alpha.sum())
    m = state.means
    j = m.shape[0]
    quad_ = np.empty((n, j))
    elog_det = np.empty(j)
    for k in range(j):
        low = cholesky(scale[k], lower=True)
        y = (X - m[k]) @ low
        quad_[:, k] = (y ** 2).sum(axis=1)
        logdet_w = 2.0 * np.sum(np.log(np.diag(low)))
        elog_det[k] = np.sum(digamma(0.5 * (state.dof[k] + 1 - np.arange(1, d + 1)))) \
            + d * np.log(2.0) + logdet_w
    log_dens = 0.5 * elog_det - 0.5 * d * bgmm.LOG_2PI \
        - 0.5 * (state.dof * quad_ + d / state.beta)
    return elog_pi[None, :] + log_dens


def _loop_kl_terms(pri, state, scale):
    alpha, beta, m = state.alpha, state.beta, state.means
    j, d = m.shape
    kl = gammaln(alpha.sum()) - gammaln(j * pri.alpha0) \
        + j * gammaln(pri.alpha0) - np.sum(gammaln(alpha)) \
        + np.sum((alpha - pri.alpha0) * (digamma(alpha) - digamma(alpha.sum())))
    dev = m - pri.m0[None, :]
    nu, w = state.dof, scale
    idx = np.arange(1, d + 1)
    for k in range(j):
        low = cholesky(w[k], lower=True)
        logdet_w = 2.0 * np.sum(np.log(np.diag(low)))
        elog_det = np.sum(digamma(0.5 * (nu[k] + 1 - idx))) + d * np.log(2.0) + logdet_w
        quad_ = nu[k] * dev[k] @ w[k] @ dev[k]
        kl += 0.5 * d * np.log(beta[k] / pri.beta0) - 0.5 * d \
            + 0.5 * pri.beta0 * (quad_ + d / beta[k])
        log_b_q = -0.5 * nu[k] * logdet_w - 0.5 * nu[k] * d * np.log(2.0) \
            - 0.25 * d * (d - 1) * np.log(np.pi) \
            - np.sum(gammaln(0.5 * (nu[k] + 1 - idx)))
        log_b_p = -0.5 * pri.nu0 * pri.w0_logdet - 0.5 * pri.nu0 * d * np.log(2.0) \
            - 0.25 * d * (d - 1) * np.log(np.pi) \
            - np.sum(gammaln(0.5 * (pri.nu0 + 1 - idx)))
        kl += log_b_q - log_b_p + 0.5 * (nu[k] - pri.nu0) * elog_det \
            + 0.5 * nu[k] * (np.trace(pri.w0_inv @ w[k]) - d)
    return float(kl)


def _loop_fit_full(X, config, seed):
    """The fitted state and its scale matrices W = inv(w_inv)."""
    pri = bgmm._resolve_priors(X, config)
    resp = bgmm._init_responsibilities(X, config.max_components, np.random.default_rng(seed))
    j = config.max_components
    state = bgmm.VariationalState(covariance_type="full", responsibilities=resp,
                                  alpha=np.zeros(j), beta=np.zeros(j),
                                  means=np.zeros((j, X.shape[1])))
    prev = -np.inf
    for _ in range(config.max_iterations):
        scale = _loop_m_step(X, state.responsibilities, pri, state)
        log_dens = _loop_expected_log_density(X, state, scale)
        log_norm = logsumexp(log_dens, axis=1)
        state.responsibilities = np.exp(log_dens - log_norm[:, None])
        value = float(log_norm.sum()) - _loop_kl_terms(pri, state, scale)
        state.elbo_trace.append(value)
        if abs(value - prev) < config.elbo_tolerance:
            break
        prev = value
    return state, scale


def _loop_plug_in(state, scale, config):
    """The full-covariance plug-in as the per-component code built it:
    inv(dof * scale) through a Cholesky solve, then an eigenvalue floor."""
    weights = state.expected_weights()
    keep = weights >= config.prune_threshold
    if not keep.any():
        keep = weights == weights.max()
    d = state.means.shape[1]
    cov = []
    for k in np.flatnonzero(keep):
        sigma = cho_solve((cholesky(state.dof[k] * scale[k], lower=True), True), np.eye(d))
        vals, vecs = eigh(0.5 * (sigma + sigma.T))
        cov.append(vecs @ np.diag(np.maximum(vals, config.variance_floor)) @ vecs.T)
    return FittedMixture(weights=weights[keep] / weights[keep].sum(), means=state.means[keep],
                         covariances=np.array(cov), covariance_type="full",
                         metadata={"converged": True, "all_pruned_fallback": False})


def _assert_close(got, ref, name, tol=1e-12):
    # relative to the array's largest entry: near-zero off-diagonal entries
    # of a matrix differ by more than tol of themselves
    np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * np.abs(ref).max(), err_msg=name)


class TestBatchedFullIteration:
    @pytest.mark.parametrize("n,d,j", [(120, 1, 6), (120, 3, 6), (150, 8, 10), (150, 18, 6), (5, 3, 10)])
    def test_equals_per_component_loop(self, n, d, j):
        rng = np.random.default_rng(d * 100 + n)
        # as many clusters as components, so that every component keeps weight
        centers = rng.normal(0.0, 4.0, size=(j, d))
        X = centers[rng.integers(0, j, size=n)] + rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
        # every case runs past 10 iterations before its ELBO stops moving, so
        # both iterations stop at max_iterations, after the same steps
        config = BgmmConfig(max_components=j, covariance_type="full",
                            max_iterations=10, elbo_tolerance=1e-300)
        ref, _ = _loop_fit_full(X, config, seed=3)
        pri = bgmm._resolve_priors(X, config)
        xc = X - pri.m0
        got = bgmm._fit_once(xc, xc ** 2, config, pri, np.random.default_rng(3))
        got.means = got.means + pri.m0
        assert len(ref.elbo_trace) == len(got.elbo_trace) == 10
        # the scatter about the data mean is summed in another order than the
        # reference's scatter about each component mean
        np.testing.assert_allclose(got.elbo_trace, ref.elbo_trace, rtol=1e-11, atol=0)
        for name in ("w_inv", "dof", "means", "responsibilities"):
            _assert_close(getattr(got, name), getattr(ref, name), name, tol=1e-11)
        # the plug-in reads w_inv / dof as a symmetric matrix
        assert np.array_equal(got.w_inv, got.w_inv.transpose(0, 2, 1))

    def test_scoring_equals_per_component_loop(self):
        rng = np.random.default_rng(5)
        centers = rng.normal(0.0, 6.0, size=(3, 18))
        X = centers[rng.integers(0, 3, size=200)] + rng.normal(size=(200, 18))
        mix, _ = fit(X, BgmmConfig(max_components=4, covariance_type="full"), seed=2)
        Y = rng.normal(size=(50, 18)) * 3.0
        ref = np.empty((Y.shape[0], mix.n_components))
        for k in range(mix.n_components):
            low = cholesky(mix.covariances[k], lower=True)
            y = np.linalg.solve(low, (Y - mix.means[k]).T).T
            logdet = 2.0 * np.sum(np.log(np.diag(low)))
            ref[:, k] = -0.5 * (18 * bgmm.LOG_2PI + logdet + (y ** 2).sum(axis=1))
        assert mix.n_components > 1
        np.testing.assert_allclose(bgmm._component_log_density(mix, Y), ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("use_class_priors", [False, True])
    def test_same_labels_as_per_component_loop(self, monkeypatch, use_class_priors):
        # `clbgmm synth --basic 7 --compound 15 --seed 1` shapes, full covariance
        ta, tb, tasks = generate_synthetic(SyntheticConfig(n_basic_classes=7,
                                                           n_compound_classes=15), 1)
        manifest = ExperimentManifest(
            tasks=tuple(tasks),
            modalities=(ModalitySpec("mod_a", "", 2, True), ModalitySpec("mod_b", "", 2, False)),
            fusion_strategy="concat",
            bgmm_config=BgmmConfig(max_components=10, covariance_type="full"),
            seeds=(1,), output_path="out", use_class_priors=use_class_priors)
        test_rows = None
        labels = []
        loop_fits = []
        for reference in (False, True):
            if reference:
                def loop_fit(rows, config, seed):
                    state, scale = _loop_fit_full(np.asarray(rows, dtype=np.float64), config, seed)
                    loop_fits.append(seed)
                    return _loop_plug_in(state, scale, config), state
                monkeypatch.setattr("clbgmm.ensemble.fit", loop_fit)
            ens = run_continual(manifest, [ta, tb], seed=1, compute_joint_reference=False).ensemble
            if test_rows is None:
                test_rows = np.vstack([ens.fusion.transform(b.test.features)
                                       for b in build_task_sequence(manifest, [ta, tb])])
            labels.append(predict_batch(ens, test_rows))
        assert len(loop_fits) == 22
        assert labels[0] == labels[1]
        assert len(labels[0]) == 220


def _fitted_full_state(seed=11, n=240, d=6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 4.0, size=(3, d))
    X = centers[rng.integers(0, 3, size=n)] + rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
    config = BgmmConfig(max_components=4, covariance_type="full")
    mix, state = fit(X, config, seed=0)
    return X, mix, state, bgmm._resolve_priors(X, config)


class TestSingleFactorAlgebra:
    def test_plug_in_is_inverse_of_posterior_mean_precision(self):
        X, mix, state, _ = _fitted_full_state()
        keep = state.expected_weights() >= BgmmConfig().prune_threshold
        scale = np.linalg.inv(state.w_inv[keep])
        expected = np.linalg.inv(state.dof[keep][:, None, None] * scale)
        assert np.linalg.eigvalsh(expected).min() > BgmmConfig().variance_floor  # floor unused
        for k in range(mix.n_components):
            _assert_close(mix.covariances[k], expected[k], k)

    def test_e_step_equals_explicit_quadratic_form(self):
        X, _, state, pri = _fitted_full_state()
        X = X - pri.m0  # the fit's frame
        d = X.shape[1]
        got, kl = bgmm._e_step(X, X ** 2, pri, state)
        w = np.linalg.inv(state.w_inv)
        xc = X[None, :, :] - state.means[:, None, :]
        quad = np.einsum("jnd,jde,jne->nj", xc, state.dof[:, None, None] * w, xc)
        elog_det = digamma(0.5 * (state.dof[:, None] + 1 - np.arange(1, d + 1))).sum(axis=1) \
            + d * np.log(2.0) + np.linalg.slogdet(w)[1]
        ref = digamma(state.alpha) - digamma(state.alpha.sum()) + 0.5 * elog_det \
            - 0.5 * d * bgmm.LOG_2PI - 0.5 * (quad + d / state.beta)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        uncentred = dataclasses.replace(state, means=state.means + pri.m0)
        np.testing.assert_allclose(kl, _loop_kl_terms(pri, uncentred, w), rtol=1e-12, atol=0)

    def test_large_offset_keeps_log_likelihood_differences(self):
        X, mix, state, pri = _fitted_full_state()
        shifted_mix, shifted_state = fit(X + 1e6, BgmmConfig(max_components=4, covariance_type="full"),
                                         seed=0)
        assert len(shifted_state.elbo_trace) == len(state.elbo_trace)
        ll = log_likelihood_batch(mix, X)
        ll_shifted = log_likelihood_batch(shifted_mix, X + 1e6)
        np.testing.assert_allclose(ll_shifted - ll_shifted[0], ll - ll[0], rtol=0, atol=1e-6)
        # the E-step and scoring alone, on the same parameters moved by 1e6
        moved = FittedMixture(weights=mix.weights, means=mix.means + 1e6,
                              covariances=mix.covariances, covariance_type="full", metadata={})
        np.testing.assert_allclose(bgmm._component_log_density(moved, X + 1e6),
                                   bgmm._component_log_density(mix, X), rtol=0, atol=1e-8)
        e_step = bgmm._e_step(X, X ** 2, pri, state)[0]
        state.means = state.means + 1e6
        np.testing.assert_allclose(bgmm._e_step(X + 1e6, (X + 1e6) ** 2, pri, state)[0],
                                   e_step, rtol=0, atol=1e-8)


class TestShiftInvariance:
    # every fit runs on rows centred on the data mean, so a constant shift of
    # the data moves only the means; an uncentred scatter loses the variance
    # to cancellation once the offset dwarfs the spread

    @pytest.mark.parametrize("offset", [1e4, 1e8])
    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_fit_commutes_with_a_constant_shift(self, ct, offset):
        rng = np.random.default_rng(12)
        X = np.vstack([rng.normal(c, 1.0, size=(80, 3)) for c in (0.0, 6.0)]) \
            * rng.uniform(0.5, 2.0, 3)
        config = BgmmConfig(max_components=6, covariance_type=ct)
        mix, state = fit(X, config, seed=1)
        shifted, shifted_state = fit(X + offset, config, seed=1)
        assert mix.n_components == shifted.n_components == 2
        assert len(shifted_state.elbo_trace) == len(state.elbo_trace)
        np.testing.assert_allclose(shifted.covariances, mix.covariances,
                                   rtol=0, atol=1e-6 * np.abs(mix.covariances).max())
        ll = log_likelihood_batch(mix, X)
        ll_shifted = log_likelihood_batch(shifted, X + offset)
        np.testing.assert_allclose(ll_shifted - ll_shifted[0], ll - ll[0], rtol=0, atol=1e-5)

    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_variance_at_a_large_offset(self, ct):
        spread = np.random.default_rng(0).normal(size=(200, 1))
        mix, _ = fit(1e8 + spread, BgmmConfig(max_components=1, covariance_type=ct), seed=0)
        # with the default priors, one component's plug-in variance is the
        # sample variance
        assert float(mix.covariances.ravel()[0]) == pytest.approx(spread.var(), rel=1e-6)
        assert abs(spread.var() - 1.0) < 0.1


# The diagonal/spherical per-class iteration as it was before each term was
# computed once per fit or iteration (X ** 2 every iteration, digamma and
# log(rate) recomputed in the KL term, prior-only terms every iteration,
# scipy's logsumexp) and before spherical fits ran through the diagonal
# formulas, and before each fit ran on rows centred on the prior mean m0:
# the reference the trimmed iteration must reproduce to rounding.

def _ref_m_step(X, resp, pri, state):
    d = X.shape[1]
    nk = resp.sum(axis=0) + 1e-12
    xbar = (resp.T @ X) / nk[:, None]
    state.alpha = pri.alpha0 + resp.sum(axis=0)
    state.beta = pri.beta0 + nk
    state.means = (pri.beta0 * pri.m0[None, :] + nk[:, None] * xbar) / state.beta[:, None]
    shrink = (pri.beta0 * nk / state.beta)
    dev = xbar - pri.m0[None, :]
    sq = resp.T @ (X ** 2) - nk[:, None] * xbar ** 2
    sq = np.maximum(sq, 0.0)
    if state.covariance_type == "diagonal":
        state.shape = pri.a0 + 0.5 * nk
        state.rate = pri.b0[None, :] + 0.5 * (sq + shrink[:, None] * dev ** 2)
    else:
        state.shape = pri.a0 + 0.5 * nk * d
        state.rate = pri.b0 + 0.5 * (sq.sum(axis=1) + shrink * (dev ** 2).sum(axis=1))


def _ref_expected_log_density(X, state):
    d = X.shape[1]
    elog_pi = digamma(state.alpha) - digamma(state.alpha.sum())
    m = state.means
    if state.covariance_type == "diagonal":
        elog_lam = digamma(state.shape)[:, None] - np.log(state.rate)
        prec = state.shape[:, None] / state.rate
        quad_ = (X ** 2) @ prec.T - 2.0 * X @ (prec * m).T + np.sum(prec * m ** 2, axis=1)
        log_dens = 0.5 * elog_lam.sum(axis=1) - 0.5 * d * bgmm.LOG_2PI \
            - 0.5 * (quad_ + d / state.beta)
    else:
        elog_lam = digamma(state.shape) - np.log(state.rate)
        prec = state.shape / state.rate
        sq = ((X[:, None, :] - m[None, :, :]) ** 2).sum(axis=2)
        log_dens = 0.5 * d * elog_lam - 0.5 * d * bgmm.LOG_2PI \
            - 0.5 * (prec * sq + d / state.beta)
    return elog_pi[None, :] + log_dens


def _ref_kl_terms(pri, state):
    alpha, beta, m = state.alpha, state.beta, state.means
    j, d = m.shape
    kl = gammaln(alpha.sum()) - gammaln(j * pri.alpha0) \
        + j * gammaln(pri.alpha0) - np.sum(gammaln(alpha)) \
        + np.sum((alpha - pri.alpha0) * (digamma(alpha) - digamma(alpha.sum())))
    dev = m - pri.m0[None, :]
    a, b = state.shape, state.rate
    if state.covariance_type == "diagonal":
        kl += np.sum(d * (0.5 * np.log(beta / pri.beta0) - 0.5)
                     + 0.5 * pri.beta0 * ((a[:, None] / b * dev ** 2).sum(axis=1) + d / beta))
        kl += np.sum((a[:, None] - pri.a0) * digamma(a)[:, None]
                     - gammaln(a)[:, None] + gammaln(pri.a0)
                     + pri.a0 * (np.log(b) - np.log(pri.b0)[None, :])
                     + a[:, None] * (pri.b0[None, :] - b) / b)
    else:
        kl += np.sum(d * (0.5 * np.log(beta / pri.beta0) - 0.5)
                     + 0.5 * pri.beta0 * (a / b * (dev ** 2).sum(axis=1) + d / beta))
        kl += np.sum((a - pri.a0) * digamma(a) - gammaln(a) + gammaln(pri.a0)
                     + pri.a0 * (np.log(b) - np.log(pri.b0))
                     + a * (pri.b0 - b) / b)
    return float(kl)


def _ref_fit(X, config, seed):
    """The chosen restart's state, as fit() picks it."""
    pri = bgmm._resolve_priors(X, config)
    rng = np.random.default_rng(seed)
    j = config.max_components
    best = None
    for _ in range(config.n_restarts):
        resp = bgmm._init_responsibilities(X, j, rng)
        state = bgmm.VariationalState(covariance_type=config.covariance_type,
                                      responsibilities=resp, alpha=np.zeros(j),
                                      beta=np.zeros(j), means=np.zeros((j, X.shape[1])))
        prev = -np.inf
        for _ in range(config.max_iterations):
            _ref_m_step(X, state.responsibilities, pri, state)
            log_dens = _ref_expected_log_density(X, state)
            log_norm = logsumexp(log_dens, axis=1)
            state.responsibilities = np.exp(log_dens - log_norm[:, None])
            value = float(log_norm.sum()) - _ref_kl_terms(pri, state)
            state.elbo_trace.append(value)
            if abs(value - prev) < config.elbo_tolerance:
                break
            prev = value
        if best is None or state.elbo_trace[-1] > best.elbo_trace[-1]:
            best = state
    return best


class TestTrimmedIteration:
    # (n, d, components, max_iterations, n_restarts)
    CASES = {
        "d1": (120, 1, 6, 200, 1),
        "d4": (150, 4, 8, 200, 1),
        "d64": (200, 64, 6, 200, 1),
        "stops_at_max_iterations": (150, 4, 8, 7, 1),
        "three_restarts": (150, 4, 6, 200, 3),
    }

    @pytest.mark.parametrize("ct", ["spherical", "diagonal"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_reference_iteration(self, ct, case):
        n, d, j, max_iterations, n_restarts = self.CASES[case]
        rng = np.random.default_rng(d * 1000 + n + j)
        # overlapping clusters, so that every fit takes several iterations
        centers = rng.normal(0.0, 8.0 / np.sqrt(d), size=(j, d))
        X = centers[rng.integers(0, j, size=n)] + rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, d)
        config = BgmmConfig(max_components=j, covariance_type=ct,
                            max_iterations=max_iterations, n_restarts=n_restarts)
        ref = _ref_fit(X, config, seed=4)
        _, got = fit(X, config, seed=4)
        if case == "stops_at_max_iterations":
            assert len(ref.elbo_trace) == max_iterations
        else:
            assert 3 <= len(ref.elbo_trace) < max_iterations
        # the fit's means are relative to the data mean, and its scatter, the
        # second moment minus beta m^2, rounds differently from the
        # reference's scatter about each component mean; a spherical fit's
        # (J, 1) rate also sums over the D columns in another order
        got.means = got.means + X.mean(axis=0)
        assert len(got.elbo_trace) == len(ref.elbo_trace)
        np.testing.assert_allclose(got.elbo_trace, ref.elbo_trace, rtol=1e-11, atol=0)
        for name in ("alpha", "means", "shape", "rate", "responsibilities"):
            want = getattr(ref, name)
            np.testing.assert_allclose(getattr(got, name).reshape(want.shape), want,
                                       rtol=0, atol=1e-11 * np.abs(want).max(), err_msg=name)


def _broadcast_component_log_density(mix, X):
    """Diagonal/spherical scoring as the (N, J, D) broadcast of (x - m)."""
    d, m, var = mix.dim, mix.means, mix.covariances
    if mix.covariance_type == "diagonal":
        quad_ = ((X[:, None, :] - m[None, :, :]) ** 2 / var[None, :, :]).sum(axis=2)
        return -0.5 * (d * bgmm.LOG_2PI + np.log(var).sum(axis=1)[None, :] + quad_)
    sq = ((X[:, None, :] - m[None, :, :]) ** 2).sum(axis=2)
    return -0.5 * (d * bgmm.LOG_2PI + d * np.log(var)[None, :] + sq / var[None, :])


def _random_mixture(rng, ct, j, d, offset):
    weights = rng.uniform(0.1, 1.0, j)
    covariances = rng.uniform(0.2, 3.0, (j, d) if ct == "diagonal" else j)
    return FittedMixture(weights=weights / weights.sum(),
                         means=offset + rng.normal(0.0, 3.0, (j, d)),
                         covariances=covariances, covariance_type=ct, metadata={})


class TestGemmScoring:
    @pytest.mark.parametrize("ct", ["spherical", "diagonal"])
    @pytest.mark.parametrize("d", [1, 5, 64])
    def test_matches_broadcast(self, ct, d):
        rng = np.random.default_rng(d)
        mix = _random_mixture(rng, ct, 7, d, offset=0.0)
        X = rng.normal(0.0, 5.0, (300, d))
        ref = _broadcast_component_log_density(mix, X)
        got = bgmm._component_log_density(mix, X)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-11)

    @pytest.mark.parametrize("ct", ["spherical", "diagonal"])
    def test_large_offset_does_not_cancel(self, ct):
        # un-normalized features far from the origin: the uncentred expansion
        # loses every digit of the quadratic form to x**2 ~ 1e16
        rng = np.random.default_rng(8)
        mix = _random_mixture(rng, ct, 5, 6, offset=1e8)
        X = 1e8 + rng.normal(0.0, 4.0, (200, 6))
        ref = _broadcast_component_log_density(mix, X)
        got = bgmm._component_log_density(mix, X)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("use_class_priors", [False, True])
    def test_same_labels_as_broadcast_on_readme_dataset(self, monkeypatch, use_class_priors):
        # `clbgmm synth --basic 7 --compound 15 --seed 1` with its default manifest
        ta, tb, tasks = generate_synthetic(SyntheticConfig(n_basic_classes=7,
                                                           n_compound_classes=15), 1)
        manifest = ExperimentManifest(
            tasks=tuple(tasks),
            modalities=(ModalitySpec("mod_a", "", 2, True), ModalitySpec("mod_b", "", 2, False)),
            fusion_strategy="concat", bgmm_config=BgmmConfig(max_components=10),
            seeds=(1,), output_path="out", use_class_priors=use_class_priors)
        ens = run_continual(manifest, [ta, tb], seed=1, compute_joint_reference=False).ensemble
        test_rows = np.vstack([ens.fusion.transform(b.test.features)
                               for b in build_task_sequence(manifest, [ta, tb])])
        got = predict_batch(ens, test_rows)
        monkeypatch.setattr(bgmm, "_component_log_density", _broadcast_component_log_density)
        assert got == predict_batch(ens, test_rows)
        assert ens.class_count == 22 and len(got) == 220


def _broadcast_init_responsibilities(X, n_components, rng):
    """Farthest-point init that assigns rows by an (N, J, D) broadcast."""
    n = X.shape[0]
    n_centers = min(n_components, n)
    probe = rng.uniform(X.min(axis=0), X.max(axis=0))
    first = int(np.argmin(np.linalg.norm(X - probe, axis=1)))
    centers = [first]
    min_dist = np.linalg.norm(X - X[first], axis=1)
    for _ in range(n_centers - 1):
        nxt = int(np.argmax(min_dist))
        centers.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(X - X[nxt], axis=1))
    dists = np.linalg.norm(X[:, None, :] - X[centers][None, :, :], axis=2)
    resp = np.zeros((n, n_components))
    resp[np.arange(n), np.argmin(dists, axis=1)] = 1.0
    return resp


class TestInitResponsibilities:
    @pytest.mark.parametrize("kind", ["plain", "duplicated_rows", "more_components_than_rows",
                                      "large_offset"])
    def test_equals_broadcast_assignment(self, kind):
        rng = np.random.default_rng(len(kind))
        for case in range(75):
            n = int(rng.integers(1, 9 if kind == "more_components_than_rows" else 401))
            d = int(rng.integers(1, 129))
            j = int(rng.integers(n + 1, n + 6) if kind == "more_components_than_rows"
                    else rng.integers(1, 13))
            X = rng.normal(0.0, rng.uniform(0.1, 10.0), (n, d))
            if kind == "duplicated_rows":
                X = X[rng.integers(0, max(1, n // 5), size=n)]
            if kind == "large_offset":
                X += 1e8
            seed = int(rng.integers(2**32))
            got = bgmm._init_responsibilities(X, j, np.random.default_rng(seed))
            ref = _broadcast_init_responsibilities(X, j, np.random.default_rng(seed))
            assert np.array_equal(got, ref), (kind, case)
