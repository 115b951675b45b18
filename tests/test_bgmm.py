import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
            BgmmConfig(covariance_type="banana")

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValidationError):
            BgmmConfig(variance_floor=0.0)

    def test_roundtrip(self):
        cfg = BgmmConfig(max_components=4, covariance_type="full")
        assert BgmmConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("setting", [
        {"max_components": "x"}, {"max_components": 2.0}, {"covariance_type": 1},
        {"variance_floor": True}, {"weight_concentration_prior": "x"}, {"elbo_tolerance": None},
        {"bogus": 1},
        # integers that no float can hold ended in an OverflowError or a TypeError
        {"max_components": 10 ** 400}, {"mean_prior_strength": 10 ** 400},
        {"variance_floor": 10 ** 400}, {"precision_prior_rate": 10 ** 400},
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

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValidationError):
            fit(np.zeros((5, 0)), BgmmConfig(), seed=0)

    def test_rejects_a_vector(self):
        # one column of N rows is (N, 1); a (N,) vector is not read as one
        with pytest.raises(ValidationError, match=r"non-empty \(N, D\) matrix, got shape \(5,\)"):
            fit(np.arange(5.0), BgmmConfig(), seed=0)

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


# The closed-form log marginal likelihood of the conjugate models that a fit
# with max_components = 1 is (Murphy, "Conjugate Bayesian analysis of the
# Gaussian distribution", 2007, eqs. 95 and 266), written from the model's
# definition: mean prior N(m0, (beta0 Lambda)^-1) with m0 the data mean; Gamma
# precisions with shape a0 and rate b0, the data variance per dimension
# (floored) or precision_prior_rate; the Wishart prior with nu0 = D + a0 and
# W0^-1 = diag(nu0 b0). With one component the bound is this evidence, so it
# carries every prior constant.

def _normal_gamma_evidence(x, m0, b0, a0, beta0):
    """log p(x) of the columns of x (N, K) sharing one Gamma precision, each
    with its own Gaussian mean."""
    n, k = x.shape
    beta_n, a_n = beta0 + n, a0 + 0.5 * n * k
    dev = x.mean(axis=0) - m0
    b_n = b0 + 0.5 * (((x - x.mean(axis=0)) ** 2).sum() + beta0 * n * (dev ** 2).sum() / beta_n)
    return (math.lgamma(a_n) - math.lgamma(a0) + a0 * math.log(b0) - a_n * math.log(b_n)
            + 0.5 * k * math.log(beta0 / beta_n) - 0.5 * n * k * math.log(2.0 * math.pi))


def _conjugate_evidence(X, ct, config):
    n, d = X.shape
    a0, beta0, m0 = config.precision_prior_shape, config.mean_prior_strength, X.mean(axis=0)
    if config.precision_prior_rate is None:
        rate = np.maximum(X.var(axis=0), config.variance_floor)
    else:
        rate = np.full(d, config.precision_prior_rate)
    if ct == "diagonal":
        return sum(_normal_gamma_evidence(X[:, [i]], m0[i], rate[i], a0, beta0) for i in range(d))
    if ct == "spherical":
        return _normal_gamma_evidence(X, m0, rate.mean(), a0, beta0)
    nu0 = d + a0
    nu_n, beta_n = nu0 + n, beta0 + n
    xc, dev = X - X.mean(axis=0), X.mean(axis=0) - m0
    scale_n = np.diag(nu0 * rate) + xc.T @ xc + beta0 * n / beta_n * np.outer(dev, dev)
    return (-0.5 * n * d * math.log(math.pi)
            + sum(math.lgamma(0.5 * (nu_n + 1 - i)) - math.lgamma(0.5 * (nu0 + 1 - i))
                  for i in range(1, d + 1))
            + 0.5 * nu0 * np.log(nu0 * rate).sum() - 0.5 * nu_n * np.linalg.slogdet(scale_n)[1]
            + 0.5 * d * math.log(beta0 / beta_n))


class TestEvidenceAtOneComponent:
    @pytest.mark.parametrize("rate", [None, 2.0])
    @pytest.mark.parametrize("d", [4, 8, 16])
    @pytest.mark.parametrize("n", [30, 200])
    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_final_elbo_is_the_conjugate_evidence(self, ct, n, d, rate):
        rng = np.random.default_rng(n + d)
        X = 5.0 + rng.normal(size=(n, d)) @ rng.normal(size=(d, d)) * rng.uniform(0.5, 3.0, d)
        config = BgmmConfig(max_components=1, covariance_type=ct, precision_prior_rate=rate)
        mix, _ = fit(X, config, seed=0)
        assert mix.metadata["final_elbo"] == pytest.approx(_conjugate_evidence(X, ct, config),
                                                           rel=1e-9)


class TestEffectiveComponents:
    def test_one_cluster(self):
        rng = np.random.default_rng(0)
        mix, _ = fit(rng.normal(0, 1, (120, 2)), BgmmConfig(max_components=5), seed=1)
        assert mix.n_components == 1

    def test_two_clusters(self):
        mix, _ = fit(two_cluster_data(seed=11), BgmmConfig(max_components=8), seed=1)
        assert mix.n_components == 2


# A Student-t(2) 200x16 sample: a diagonal fit of it never merges, and its
# trace runs past 100 entries.
STUDENT_T_ROWS = np.random.default_rng(4).standard_t(2, size=(200, 16))


def _record_steps(monkeypatch):
    """Wrap bgmm._step and bgmm._merge_candidates; returns the log, one
    ("step", C) per step call and one ("move", candidates) per move tried."""
    calls = []
    step, candidates = bgmm._step, bgmm._merge_candidates

    def counted_step(X, x2, pri, state):
        calls.append(("step", state.responsibilities.shape[0]))
        return step(X, x2, pri, state)

    def counted_candidates(state, config, collapse):
        out = candidates(state, config, collapse)
        calls.append(("move", 0 if out is None else out.shape[0]))
        return out

    monkeypatch.setattr(bgmm, "_step", counted_step)
    monkeypatch.setattr(bgmm, "_merge_candidates", counted_candidates)
    return calls


def _moves_after(calls):
    """From a _record_steps log: the number of plain steps, and the number
    of plain steps made before each move was tried."""
    plain = 0
    moves_after = []
    scoring = False   # the next step call scores a move's candidates
    for kind, n in calls:
        if kind == "move":
            moves_after.append(plain)
            scoring = n > 0
        elif scoring:
            scoring = False
        else:
            plain += 1
    return plain, moves_after


def two_scaled_clusters():
    """160x3: two unit clusters, centres 0 and 6, each column scaled."""
    rng = np.random.default_rng(12)
    return np.vstack([rng.normal(c, 1.0, size=(80, 3)) for c in (0.0, 6.0)]) \
        * rng.uniform(0.5, 2.0, 3)


# Two overlapping clusters, 160x4: a diagonal fit (seed 0) accepts merges
# after plain steps 1, 4 and 7.
OVERLAPPING_ROWS = np.vstack([np.random.default_rng(28).normal(0.0, 1.0, (80, 4)),
                              np.random.default_rng(29).normal(2.5, 1.0, (80, 4))])


class TestMergeMoves:
    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    @pytest.mark.parametrize("d", [2, 8, 32, 64])
    def test_one_gaussian_keeps_one_component(self, ct, d):
        for draw in range(2):
            X = np.random.default_rng(100 * d + draw).normal(size=(300, d))
            mix, _ = fit(X, BgmmConfig(max_components=10, covariance_type=ct), seed=draw)
            assert mix.n_components == 1, draw

    @pytest.mark.parametrize("ct", ["spherical", "diagonal"])
    @pytest.mark.parametrize("d", [8, 32, 64])
    def test_three_separated_clusters_keep_three(self, ct, d):
        # full covariance is left out: its Wishart prior prefers one component
        # here (see README, "Merge moves")
        for draw in range(2):
            rng = np.random.default_rng(7 * d + draw)
            X = np.vstack([rng.normal(c, 1.0, (100, d)) for c in rng.normal(0.0, 10.0, (3, d))])
            mix, _ = fit(X, BgmmConfig(max_components=10, covariance_type=ct), seed=draw)
            assert mix.n_components == 3, draw

    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_merged_trace_is_monotone_and_counted(self, ct):
        X = np.random.default_rng(3).normal(size=(300, 8))
        mix, state = fit(X, BgmmConfig(max_components=10, covariance_type=ct), seed=1)
        assert mix.metadata["merges"] == state.merges >= 1
        assert mix.metadata["iterations"] == len(state.elbo_trace)
        assert np.all(np.diff(state.elbo_trace) >= -1e-8)

    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_first_move_follows_step_one(self, monkeypatch, ct):
        # one plain step, the collapse scored and accepted, one step that
        # converges; the move tried at convergence has one live component
        # and scores nothing
        calls = _record_steps(monkeypatch)
        X = np.random.default_rng(3).normal(size=(300, 8))
        mix, state = fit(X, BgmmConfig(max_components=10, covariance_type=ct), seed=1)
        # the collapse and MERGE_PAIRS pairs are scored in one step
        assert [n for kind, n in calls if kind == "step"] == [1, 1 + bgmm.MERGE_PAIRS, 1]
        assert len(state.elbo_trace) == 3
        assert state.merges == mix.metadata["merges"] == 1
        assert mix.metadata["converged"]

    def test_moves_follow_steps_1_4_7_and_convergence(self, monkeypatch):
        calls = _record_steps(monkeypatch)
        mix, state = fit(STUDENT_T_ROWS, BgmmConfig(max_components=10), seed=0)
        assert state.merges == 0 and mix.metadata["converged"]
        plain, moves_after = _moves_after(calls)
        assert plain == len(state.elbo_trace) > 100
        assert moves_after == list(range(1, plain, bgmm.MERGE_PERIOD)) + [plain]

    def test_accepted_merges_do_not_shift_the_move_schedule(self, monkeypatch):
        calls = _record_steps(monkeypatch)
        mix, state = fit(OVERLAPPING_ROWS, BgmmConfig(max_components=10), seed=0)
        plain, moves_after = _moves_after(calls)
        assert state.merges == 3 and plain == len(state.elbo_trace) - state.merges
        assert moves_after == list(range(1, plain, bgmm.MERGE_PERIOD)) + [plain]

    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 4, 7])
    def test_trace_never_exceeds_max_iterations(self, max_iterations):
        # heavy-tailed data that never merges and takes over 100 trace
        # entries uncapped, so the fit is unconverged at every cap here
        config = BgmmConfig(max_components=10, max_iterations=max_iterations)
        mix, state = fit(STUDENT_T_ROWS, config, seed=0)
        assert len(state.elbo_trace) == mix.metadata["iterations"] == max_iterations
        assert not mix.metadata["converged"]

    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_converged_only_after_a_converging_plain_step(self, ct):
        # the fit of test_first_move_follows_step_one: step 1, the accepted
        # merge, then a step that converges
        X = np.random.default_rng(3).normal(size=(300, 8))
        for max_iterations, converged in ((2, False), (3, True)):
            config = BgmmConfig(max_components=10, covariance_type=ct,
                                max_iterations=max_iterations)
            mix, state = fit(X, config, seed=1)
            assert len(state.elbo_trace) == max_iterations and state.merges == 1
            assert state.converged == mix.metadata["converged"] == converged

    def test_merge_after_converging_step_then_cut_is_unconverged(self):
        # with elbo_tolerance 1, trace entry 11 (plain step 8) converges and
        # the move tried there is accepted as entry 12
        for max_iterations, converged in ((12, False), (13, True)):
            config = BgmmConfig(max_components=10, elbo_tolerance=1.0,
                                max_iterations=max_iterations)
            mix, state = fit(OVERLAPPING_ROWS, config, seed=1)
            trace = state.elbo_trace
            assert len(trace) == max_iterations and state.merges == 4
            assert abs(trace[10] - trace[9]) < 1.0
            assert state.converged == mix.metadata["converged"] == converged

    def test_candidates_none_below_two_live_components(self):
        resp = np.random.default_rng(0).dirichlet(np.ones(3), size=(1, 20))
        state = bgmm.VariationalState("diagonal", resp, alpha=np.array([[20.0, 0.01, 0.01]]))
        config = BgmmConfig(max_components=3)
        assert bgmm._merge_candidates(state, config, collapse=True) is None
        assert bgmm._merge_candidates(state, config, collapse=False) is None

    def test_collapse_comes_first_exactly_when_tried(self):
        resp = np.random.default_rng(0).dirichlet(np.ones(3), size=(1, 20))
        state = bgmm.VariationalState("diagonal", resp, alpha=np.array([[7.0, 7.0, 7.0]]))
        config = BgmmConfig(max_components=3)
        with_collapse = bgmm._merge_candidates(state, config, collapse=True)
        without = bgmm._merge_candidates(state, config, collapse=False)
        collapsed = np.zeros((20, 3))
        collapsed[:, 0] = resp[0].sum(axis=1)
        assert np.array_equal(with_collapse[0], collapsed)
        assert np.array_equal(with_collapse[1:], without)
        assert without.shape == (bgmm.MERGE_PAIRS, 20, 3)

    def test_best_candidate_wins_over_a_collapse_that_raises_the_bound(self, monkeypatch):
        # at the first move of this full fit the collapse raises the bound,
        # but a pair raises it more; taking the first candidate that raises
        # the bound ("first improvement") would end with one component
        bounds = []
        step = bgmm._step

        def recorded_step(X, x2, pri, state):
            bounds.append(step(X, x2, pri, state))
            return bounds[-1]

        monkeypatch.setattr(bgmm, "_step", recorded_step)
        mix, state = fit(two_scaled_clusters(), BgmmConfig(max_components=6, covariance_type="full"),
                         seed=1)
        first, move = bounds[0][0], bounds[1]
        assert len(move) > 1 and move[0] > first
        assert np.argmax(move) > 0
        assert state.elbo_trace[:2] == [first, move.max()]
        assert mix.n_components == 2


class TestRestarts:
    def test_tie_goes_to_the_first_restart(self, monkeypatch):
        fit_once = bgmm._fit_once
        finals = iter([1.0, 5.0, 5.0])
        states = []

        def tied_fit_once(*args):
            state = fit_once(*args)
            state.elbo_trace = [next(finals)]
            states.append(state)
            return state

        monkeypatch.setattr(bgmm, "_fit_once", tied_fit_once)
        mix, state = fit(two_cluster_data(seed=6), BgmmConfig(max_components=4, n_restarts=3), seed=2)
        assert mix.metadata["restart"] == 1 and mix.metadata["final_elbo"] == 5.0
        assert state is states[1]


def _assert_stack_equals_separate_steps(ct, X, pri, resp):
    """One step of the stack of responsibilities resp (C, N, J) gives each
    candidate the bound and posteriors of its own step, bit for bit."""
    stack = bgmm.VariationalState(ct, resp.copy())
    bounds = bgmm._step(X, X ** 2, pri, stack)
    assert bounds.shape == (resp.shape[0],)
    names = ["responsibilities", "alpha", "beta", "means"]
    names += ["w_inv", "dof"] if ct == "full" else ["rate", "shape"]
    for c in range(resp.shape[0]):
        one = bgmm.VariationalState(ct, resp[c:c + 1].copy())
        assert bgmm._step(X, X ** 2, pri, one)[0] == bounds[c]
        for name in names:
            assert np.array_equal(getattr(stack, name)[c], getattr(one, name)[0]), name


class TestStackedStep:
    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    @pytest.mark.parametrize("n_candidates", [1, 2, 3, 4])
    def test_equals_separate_steps_bit_for_bit(self, ct, n_candidates):
        rng = np.random.default_rng(n_candidates)
        X = rng.standard_t(3, size=(60, 6)) * rng.uniform(0.5, 3.0, 6)
        config = BgmmConfig(max_components=7, covariance_type=ct)
        pri = bgmm._resolve_priors(X, config)
        X = X - pri.m0
        resp = rng.dirichlet(np.full(7, 0.5), size=(n_candidates, 60))
        resp[1:, :, 0] = 0.0   # merged-away columns, as in a merge candidate
        _assert_stack_equals_separate_steps(ct, X, pri, resp)

    # the full step projects the rows through every factor of a candidate in
    # one product, so a column's place in that product varies with J and D;
    # D = 1 leaves the block step's first half empty
    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(1, 8), j=st.integers(1, 10), n=st.integers(1, 80),
           d=st.sampled_from([1, 2, 7, 8, 15, 16, 17, 24]), seed=st.integers(0, 2**32 - 1))
    def test_full_stacks_equal_separate_steps_bit_for_bit(self, c, j, n, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_t(3, size=(n, d)) * rng.uniform(0.5, 3.0, d)
        pri = bgmm._resolve_priors(X, BgmmConfig(max_components=j, covariance_type="full"))
        X = X - pri.m0
        resp = rng.dirichlet(np.full(j, 0.5), size=(c, n))
        for k in range(1, c if j > 1 else 0):   # merge candidates: column b folded into a
            a, b = rng.choice(j, size=2, replace=False)
            resp[k, :, a] += resp[k, :, b]
            resp[k, :, b] = 0.0
        _assert_stack_equals_separate_steps("full", X, pri, resp)


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

    def test_rejects_a_vector(self):
        mix, _ = fit(two_cluster_data(seed=14), BgmmConfig(max_components=4), seed=1)
        with pytest.raises(ValidationError, match=r"shape mismatch: got \(2,\)"):
            log_likelihood_batch(mix, [0.0, 0.0])

    def test_rejects_more_than_two_axes(self):
        mix, _ = fit(two_cluster_data(seed=14), BgmmConfig(max_components=4), seed=1)
        with pytest.raises(ValidationError):
            log_likelihood_batch(mix, np.zeros((2, 2, 2)))

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

    def test_factor_names_the_first_of_two_indefinite_components(self):
        indefinite = [[1.0, 2.0], [2.0, 1.0]]
        mats = np.stack([np.eye(2), np.eye(2), indefinite, np.eye(2), indefinite])
        with pytest.raises(NumericalError, match="component 2 is not positive definite"):
            bgmm._factor(mats, "test matrix")
        # in a (C, J, D, D) stack the component is the index within its candidate
        with pytest.raises(NumericalError, match="component 1 is not positive definite"):
            bgmm._factor(mats[1:].reshape(2, 2, 2, 2), "test matrix")

    def test_factor_matches_scipy(self):
        # numpy's factor and the inverse of its triangle by the block step
        # match scipy's cholesky and solve_triangular(cholesky, I) to
        # rounding; C^-1 is exactly lower triangular
        for d in (7, 16, 17, 33, 64):
            a = np.random.default_rng(d).normal(size=(6, d, d))
            _assert_factor_matches_scipy(a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d),
                                         factor_atol=1e-13, invert_own_factor=False)

    @pytest.mark.parametrize("d", [7, 16, 17, 33])
    def test_factor_matches_scipy_at_condition_number_1e10(self, d):
        # numpy's and scipy's factors differ by up to 3e-12 of their largest
        # entry here, so they are held to 1e-11 of it. The inverse is
        # compared with solve_triangular of numpy's own factor, which it
        # matches to 4e-15 of its largest entry; against the inverse of
        # scipy's factor it would differ by up to 5e-8 of it, the factors'
        # difference times cond(C) = 1e5
        rng = np.random.default_rng(d)
        rotations = np.linalg.qr(rng.normal(size=(4, d, d)))[0]
        mats = (rotations * np.logspace(0, 10, d)) @ rotations.transpose(0, 2, 1)
        assert np.linalg.cond(mats).min() > 1e9
        _assert_factor_matches_scipy(mats, factor_atol=1e-11, invert_own_factor=True)


def _assert_factor_matches_scipy(mats, factor_atol, invert_own_factor):
    """_factor against scipy: C against cholesky at rtol 1e-12 and factor_atol
    of its largest entry, C^-1 against solve_triangular(F, I) at rtol 1e-12
    and 1e-13 of its largest entry, and exact zeros above the diagonal. F is
    scipy's factor, or C itself if invert_own_factor."""
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    d = mats.shape[-1]
    low, low_inv = bgmm._factor(mats, "test matrix")
    for k in range(mats.shape[0]):
        ref = cholesky(mats[k], lower=True)
        np.testing.assert_allclose(low[k], ref, rtol=1e-12, atol=factor_atol * np.abs(ref).max())
        ref_inv = solve_triangular(low[k] if invert_own_factor else ref, np.eye(d), lower=True)
        np.testing.assert_allclose(low_inv[k], ref_inv, rtol=1e-12,
                                   atol=1e-13 * np.abs(ref_inv).max())
        assert np.array_equal(np.triu(low_inv[k], 1), np.zeros((d, d)))


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
    @example([[np.inf, 0.0], [np.inf, -np.inf], [np.inf, np.nan], [-np.inf, -np.inf]])
    def test_matches_scipy(self, rows):
        # non-finite results exactly; finite ones within 4 ulps of max(|ref|, 1)
        a = np.array(rows, dtype=np.float64)
        with np.errstate(all="ignore"):  # as its callers hold it
            got = bgmm._logsumexp(a)
            ref = logsumexp(a, axis=1)
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
        tol = 4 * np.spacing(np.maximum(np.abs(ref[finite]), 1.0))
        assert np.all(np.abs(got[finite] - ref[finite]) <= tol)


# errors of _digamma_gammaln against scipy, relative to max(1, |value|)
DIGAMMA_TOL = 9.5e-14
GAMMALN_TOL = 1.4e-13


def _assert_matches_scipy(x):
    psi, lg = bgmm._digamma_gammaln(x)
    assert psi.shape == lg.shape == x.shape
    for got, ref, tol in ((psi, digamma(x), DIGAMMA_TOL), (lg, gammaln(x), GAMMALN_TOL)):
        assert np.all(np.abs(got - ref) <= tol * np.maximum(1.0, np.abs(ref)))


def _fit_outcomes(ct):
    """What a fit decides, for a three-cluster fit and for each class of the
    README dataset's run: components kept, iterations, merges and components
    pruned of every mixture, the three-cluster fit's row labels, and the
    run's predicted labels."""
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(c, 1.0, (100, 8)) for c in rng.normal(0.0, 10.0, (3, 8))])
    mix, _ = fit(X, BgmmConfig(max_components=10, covariance_type=ct), seed=0)
    rows = bgmm._component_log_density(mix, X) + np.log(mix.weights)
    ta, tb, tasks = generate_synthetic(SyntheticConfig(n_basic_classes=7,
                                                       n_compound_classes=15), 1)
    manifest = ExperimentManifest(
        tasks=tuple(tasks),
        modalities=(ModalitySpec("mod_a", "", 2, True), ModalitySpec("mod_b", "", 2, False)),
        fusion_strategy="concat",
        bgmm_config=BgmmConfig(max_components=10, covariance_type=ct),
        seeds=(1,), output_path="out")
    ens = run_continual(manifest, [ta, tb], seed=1, compute_joint_reference=False).ensemble
    test_rows = np.vstack([ens.fusion.transform(b.test.features)
                           for b in build_task_sequence(manifest, [ta, tb])])
    counts = [(m.n_components, m.metadata["iterations"], m.metadata["merges"],
               m.metadata["components_pruned"]) for m in [mix, *ens.models.values()]]
    return counts, rows.argmax(axis=1).tolist(), predict_batch(ens, test_rows)


class TestDigammaGammaln:
    def test_matches_scipy_on_a_log_grid(self):
        _assert_matches_scipy(np.logspace(-2, 4, 20001)[1:-1])

    def test_matches_scipy_at_the_weight_and_gamma_arguments(self):
        # alpha = alpha0 + integer counts, their sums over J = 10, and Gamma
        # shapes a0 + counts * D / 2
        counts = np.arange(10001.0)
        _assert_matches_scipy(np.stack([0.1 + counts, 10 * 0.1 + counts, 1.0 + 0.5 * counts]))

    def test_matches_scipy_at_the_wishart_half_integers(self):
        # 0.5 * (nu + 1 - i), i = 1..D, for nu = D + a0 + integer counts
        for d in (2, 8, 16, 64):
            nu = d + 1.0 + np.arange(2001.0)
            _assert_matches_scipy(0.5 * (nu[:, None] + 1 - np.arange(1, d + 1)))

    def test_recurrences(self):
        # psi(x + 1) = psi(x) + 1/x and log Gamma(x + 1) = log Gamma(x) + log x
        x = np.logspace(-2, 4, 2001)
        psi, lg = bgmm._digamma_gammaln(x)
        psi1, lg1 = bgmm._digamma_gammaln(x + 1.0)
        scale = np.maximum(1.0, np.maximum(np.abs(psi), np.abs(psi1)))
        assert np.all(np.abs(psi1 - psi - 1.0 / x) <= 2 * DIGAMMA_TOL * scale)
        scale = np.maximum(1.0, np.maximum(np.abs(lg), np.abs(lg1)))
        assert np.all(np.abs(lg1 - lg - np.log(x)) <= 2 * GAMMALN_TOL * scale)

    @pytest.mark.parametrize("n", [1, 5, 21, 171])
    def test_rows_are_computed_apart(self, n):
        # a merge move's stacked step must give each candidate the bits of
        # its own step
        x = np.random.default_rng(n).uniform(0.05, 500.0, (4, n))
        psi, lg = bgmm._digamma_gammaln(x)
        for row in range(4):
            for alone in (x[row], x[row:row + 1]):
                psi1, lg1 = bgmm._digamma_gammaln(alone)
                assert np.array_equal(psi1.reshape(n), psi[row])
                assert np.array_equal(lg1.reshape(n), lg[row])

    def test_nan_propagates(self):
        psi, lg = bgmm._digamma_gammaln(np.array([np.nan, 1.0]))
        assert np.isnan(psi[0]) and np.isnan(lg[0])
        assert np.isfinite(psi[1]) and np.isfinite(lg[1])

    @pytest.mark.parametrize("ct", bgmm.COVARIANCE_TYPES)
    def test_fits_decide_as_with_scipy_functions(self, monkeypatch, ct):
        ours = _fit_outcomes(ct)
        calls = []

        def scipy_functions(x):
            calls.append(x.size)
            return digamma(x), gammaln(x)
        monkeypatch.setattr(bgmm, "_digamma_gammaln", scipy_functions)
        assert _fit_outcomes(ct) == ours
        assert calls
        # every fit merged and pruned, so those decisions were compared too
        assert all(merges and pruned for _, _, merges, pruned in ours[0])


def _plain_fit_once(X, x2, config, pri, rng):
    """bgmm._fit_once without merge moves: plain steps, on a stack of one,
    until the bound moves by less than elbo_tolerance or the trace holds
    max_iterations values. The reference iterations below have no moves, so
    they are compared with this."""
    resp = bgmm._init_responsibilities(X, config.max_components, rng)
    state = bgmm.VariationalState(config.covariance_type, resp[None])
    prev = -np.inf
    for _ in range(config.max_iterations):
        value = float(bgmm._step(X, x2, pri, state)[0])
        state.elbo_trace.append(value)
        state.converged = abs(value - prev) < config.elbo_tolerance
        if state.converged:
            break
        prev = value
    return bgmm._take(state, 0)


def _stack_of_one(state):
    """A fitted state with the leading candidate axis a step works on."""
    return dataclasses.replace(state, **{
        f.name: getattr(state, f.name)[None] for f in dataclasses.fields(state)
        if isinstance(getattr(state, f.name), np.ndarray)})


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
        w_inv = np.diag(pri.w0_diag) + scatter + shrink[k] * np.outer(dev[k], dev[k])
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
        w0_logdet = -np.linalg.slogdet(np.diag(pri.w0_diag))[1]
        log_b_p = -0.5 * pri.nu0 * w0_logdet - 0.5 * pri.nu0 * d * np.log(2.0) \
            - 0.25 * d * (d - 1) * np.log(np.pi) \
            - np.sum(gammaln(0.5 * (pri.nu0 + 1 - idx)))
        kl += log_b_q - log_b_p + 0.5 * (nu[k] - pri.nu0) * elog_det \
            + 0.5 * nu[k] * (np.trace(np.diag(pri.w0_diag) @ w[k]) - d)
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
        got = _plain_fit_once(xc, xc ** 2, config, pri, np.random.default_rng(3))
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
        # built directly: merges bring a fit of well-separated full-covariance
        # clusters down to one component (see README, "Merge moves")
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 18, 18))
        weights = rng.uniform(0.1, 1.0, 4)
        mix = FittedMixture(weights=weights / weights.sum(), means=rng.normal(0.0, 6.0, size=(4, 18)),
                            covariances=a @ a.transpose(0, 2, 1) / 18 + 0.5 * np.eye(18),
                            covariance_type="full", metadata={})
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
        # `clbgmm synth --basic 7 --compound 15 --seed 1` shapes, full covariance;
        # the reference loop makes no merge moves, so neither does the package
        # fit it is compared with
        monkeypatch.setattr(bgmm, "_fit_once", _plain_fit_once)
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

    def test_floored_plug_in_equals_per_component_eigh(self):
        _, _, state, pri = _fitted_full_state()
        keep = state.expected_weights() >= BgmmConfig().prune_threshold
        sigma = state.w_inv[keep] / state.dof[keep][:, None, None]
        # a floor between the eigenvalues raises some of them only
        floor = float(np.median(np.linalg.eigvalsh(sigma)))
        config = BgmmConfig(max_components=4, covariance_type="full", variance_floor=floor)
        got = bgmm._plug_in(state, config, pri, seed=0, restart=0).covariances
        for k in range(len(sigma)):
            vals, vecs = eigh(sigma[k])
            _assert_close(got[k], vecs @ np.diag(np.maximum(vals, floor)) @ vecs.T, k)

    def test_e_step_equals_explicit_quadratic_form(self):
        X, _, state, pri = _fitted_full_state()
        X = X - pri.m0  # the fit's frame
        d = X.shape[1]
        got, kl = bgmm._e_step(X, X ** 2, pri, _stack_of_one(state))
        got, kl = got[0], kl[0]
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
        e_step = bgmm._e_step(X, X ** 2, pri, _stack_of_one(state))[0]
        state.means = state.means + 1e6
        np.testing.assert_allclose(
            bgmm._e_step(X + 1e6, (X + 1e6) ** 2, pri, _stack_of_one(state))[0],
            e_step, rtol=0, atol=1e-8)


class TestFarComponents:
    def test_projected_e_step_equals_explicit_quadratic_form(self):
        # two tight clusters 1e4 standard deviations apart on a 1e8 offset:
        # the E-step projects each centred row through every factor, so a
        # row's projection is about 5e3 standard deviations long, and its
        # distance to the near component is the difference of two such
        # projections
        rng = np.random.default_rng(4)
        d = 5
        X = 1e8 + np.vstack([rng.normal(size=(80, d)) @ rng.normal(size=(d, d)) * 0.5
                             + np.eye(d)[0] * shift for shift in (0.0, 1e4)])
        config = BgmmConfig(max_components=4, covariance_type="full", precision_prior_rate=1.0)
        mix, state = fit(X, config, seed=0)
        assert mix.n_components == 2
        pri = bgmm._resolve_priors(X, config)
        X = X - pri.m0
        got = bgmm._e_step(X, X ** 2, pri, _stack_of_one(state))[0][0]
        w = np.linalg.inv(state.w_inv)
        xc = X[None, :, :] - state.means[:, None, :]
        quad_ = np.einsum("jnd,jde,jne->nj", xc, state.dof[:, None, None] * w, xc)
        assert quad_.max() > 1e6   # each row is far from one of the live components
        elog_det = digamma(0.5 * (state.dof[:, None] + 1 - np.arange(1, d + 1))).sum(axis=1) \
            + d * np.log(2.0) + np.linalg.slogdet(w)[1]
        ref = digamma(state.alpha) - digamma(state.alpha.sum()) + 0.5 * elog_det \
            - 0.5 * d * bgmm.LOG_2PI - 0.5 * (quad_ + d / state.beta)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0)


class TestFullCovarianceStorage:
    def test_file_round_trip_is_exact_and_symmetric(self):
        _, mix, _, _ = _fitted_full_state()
        loaded = FittedMixture.from_dict(json.loads(mix.to_bytes()))
        assert np.array_equal(loaded.covariances, mix.covariances)
        for cov in (mix.covariances, loaded.covariances):
            assert np.array_equal(cov, cov.transpose(0, 2, 1))

    def test_file_holds_the_lower_triangle_in_row_major_order(self):
        # positive definite, since from_dict factors it
        cov = np.array([[[10.0, 2.0, 4.0], [2.0, 30.0, 5.0], [4.0, 5.0, 60.0]]])
        mix = FittedMixture(weights=np.ones(1), means=np.zeros((1, 3)), covariances=cov,
                            covariance_type="full", metadata={})
        assert mix.to_dict()["covariances"] == [[10.0, 2.0, 30.0, 4.0, 5.0, 60.0]]
        assert np.array_equal(FittedMixture.from_dict(mix.to_dict()).covariances, cov)

    def test_plug_in_lower_triangle_is_the_eigh_floor_product(self):
        _, _, state, pri = _fitted_full_state()
        config = BgmmConfig(max_components=4, covariance_type="full")
        got = bgmm._plug_in(state, config, pri, seed=0, restart=0).covariances
        # the plug-in as it was before it mirrored the lower triangle
        keep = state.expected_weights() >= config.prune_threshold
        vals, vecs = np.linalg.eigh(state.w_inv[keep] / state.dof[keep][:, None, None])
        ref = (vecs * np.maximum(vals, config.variance_floor)[:, None, :]) @ vecs.transpose(0, 2, 1)
        assert not np.array_equal(ref, ref.transpose(0, 2, 1))
        assert np.array_equal(np.tril(got), np.tril(ref))
        assert np.array_equal(got, got.transpose(0, 2, 1))

    def test_scoring_factors_each_mixture_once(self, monkeypatch):
        factored = []
        factor = bgmm._factor

        def counted_factor(mats, what):
            if what == "covariance":
                factored.append(id(mats))
            return factor(mats, what)

        monkeypatch.setattr(bgmm, "_factor", counted_factor)
        ta, tb, tasks = generate_synthetic(SyntheticConfig(n_basic_classes=3,
                                                           n_compound_classes=3), 1)
        manifest = ExperimentManifest(
            tasks=tuple(tasks),
            modalities=(ModalitySpec("mod_a", "", 2, True), ModalitySpec("mod_b", "", 2, False)),
            fusion_strategy="concat",
            bgmm_config=BgmmConfig(max_components=4, covariance_type="full"),
            seeds=(1,), output_path="out")
        models = run_continual(manifest, [ta, tb], seed=1).ensemble.models
        # every mixture is scored against the test set of each task from its own on
        assert len(tasks) > 1
        assert sorted(factored) == sorted(id(mix.covariances) for mix in models.values())


class TestShiftInvariance:
    # every fit runs on rows centred on the data mean, so a constant shift of
    # the data moves only the means; an uncentred scatter loses the variance
    # to cancellation once the offset dwarfs the spread

    @pytest.mark.parametrize("offset", [1e4, 1e8])
    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_fit_commutes_with_a_constant_shift(self, ct, offset):
        X = two_scaled_clusters()
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


def three_clusters(seed):
    """300x8: three clusters of 100 rows, each column scaled."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 6.0, size=(3, 8))
    return np.vstack([c + rng.normal(size=(100, 8)) * rng.uniform(0.5, 2.0, 8) for c in centers])


@functools.cache
def _fit_outline(ct, seed, scale=1.0, offset=(0.0,) * 8):
    """Row labels (the argmax of the responsibilities), trace length and
    final bound of a default fit of scale * three_clusters(seed) + offset."""
    X = scale * three_clusters(seed) + np.array(offset)
    _, state = fit(X, BgmmConfig(covariance_type=ct), seed=0)
    return state.responsibilities.argmax(axis=1).tolist(), len(state.elbo_trace), state.elbo_trace[-1]


def _assert_equivariant(ct, seed, scale, offset):
    """A fit of s X + c is the fit of X in other units: the priors are set
    from the data (its mean and per-dimension variances), so the labels and
    the trace length stay, and the bound moves by the log Jacobian -N D ln s."""
    labels, length, elbo = _fit_outline(ct, seed)
    moved_labels, moved_length, moved_elbo = _fit_outline(ct, seed, scale, tuple(offset))
    assert moved_labels == labels
    assert moved_length == length
    assert moved_elbo == pytest.approx(elbo - 300 * 8 * math.log(scale), rel=0, abs=1e-7)


class TestEquivariance:
    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 3), scale=st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e),
           offset=st.lists(st.floats(-1e4, 1e4), min_size=8, max_size=8))
    def test_fit_of_scaled_and_shifted_data(self, ct, seed, scale, offset):
        _assert_equivariant(ct, seed, scale, offset)

    @pytest.mark.xfail(strict=True, reason="_resolve_priors floors the prior rate at the "
                       "absolute variance_floor (1e-6), which the variances of 1e-4 X are below")
    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    def test_fit_at_scale_1e_minus_4(self, ct):
        for seed in range(4):
            _assert_equivariant(ct, seed, 1e-4, [0.0] * 8)


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
    def test_equals_reference_iteration(self, monkeypatch, ct, case):
        n, d, j, max_iterations, n_restarts = self.CASES[case]
        rng = np.random.default_rng(d * 1000 + n + j)
        # overlapping clusters, so that every fit takes several iterations
        centers = rng.normal(0.0, 8.0 / np.sqrt(d), size=(j, d))
        X = centers[rng.integers(0, j, size=n)] + rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, d)
        config = BgmmConfig(max_components=j, covariance_type=ct,
                            max_iterations=max_iterations, n_restarts=n_restarts)
        ref = _ref_fit(X, config, seed=4)
        monkeypatch.setattr(bgmm, "_fit_once", _plain_fit_once)
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


def _uncached_log_likelihood(mix, X):
    """log_likelihood_batch as it was before the per-mixture scoring terms
    were cached: every term computed afresh on each call."""
    d, m = mix.dim, mix.means
    if mix.covariance_type != "full":
        var = mix.covariances
        if mix.covariance_type == "spherical":
            var = np.repeat(var[:, None], d, axis=1)
        ref = mix.weights @ m
        xc = X - ref
        prec, mc = 1.0 / var, m - ref
        quad_ = xc ** 2 @ prec.swapaxes(-1, -2) - xc @ (2.0 * prec * mc).swapaxes(-1, -2) \
            + (prec * mc ** 2).sum(axis=1)[None, :]
        dens = -0.5 * (d * bgmm.LOG_2PI + np.log(var).sum(axis=1)[None, :] + quad_)
    else:
        # rows and means centred on the weighted mean, as the diagonal terms
        low, low_inv = bgmm._factor(mix.covariances, "covariance")
        ref = mix.weights @ m
        quad_ = bgmm._quad(X - ref, low_inv, (low_inv @ (m - ref)[..., None])[..., 0])
        logdet = 2.0 * np.log(np.diagonal(low, axis1=1, axis2=2)).sum(axis=1)
        dens = -0.5 * (d * bgmm.LOG_2PI + logdet[None, :] + quad_)
    with np.errstate(all="ignore"):
        return bgmm._logsumexp(dens + np.log(mix.weights)[None, :])


class TestCachedScoring:
    @pytest.mark.parametrize("ct", ["spherical", "diagonal", "full"])
    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_equals_uncached_formula_bit_for_bit(self, ct, offset):
        rng = np.random.default_rng(3)
        j, d = 5, 6
        if ct == "full":
            a = rng.normal(size=(j, d, d))
            weights = rng.uniform(0.1, 1.0, j)
            mix = FittedMixture(weights=weights / weights.sum(),
                                means=offset + rng.normal(0.0, 3.0, (j, d)),
                                covariances=a @ a.transpose(0, 2, 1) + 0.5 * np.eye(d),
                                covariance_type="full", metadata={})
        else:
            mix = _random_mixture(rng, ct, j, d, offset=offset)
        for n in (1, 40, 300):   # the second and later calls read the cached terms
            X = offset + rng.normal(0.0, 4.0, (n, d))
            assert np.array_equal(log_likelihood_batch(mix, X), _uncached_log_likelihood(mix, X))


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

    def test_ignores_row_order(self):
        # the first center is the row nearest a probe drawn in the bounding
        # box, which no permutation of the rows moves
        rng = np.random.default_rng(6)
        for seed in range(20):
            X = rng.normal(0.0, 3.0, (200, 5))
            perm = rng.permutation(200)
            got = bgmm._init_responsibilities(X[perm], 10, np.random.default_rng(seed))
            ref = bgmm._init_responsibilities(X, 10, np.random.default_rng(seed))
            assert np.array_equal(got, ref[perm]), seed
