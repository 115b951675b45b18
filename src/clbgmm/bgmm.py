"""Variational Bayesian Gaussian mixture estimation.

Conjugate model: Dirichlet prior on mixing weights, Gaussian prior on
component means, Gamma priors on precisions (spherical/diagonal) or a
Wishart prior (full). Fitting alternates closed-form posterior updates
with a log-sum-exp responsibility step, tracks the evidence lower bound,
and prunes low-weight components once after convergence.

Point estimates (posterior means) populate the returned FittedMixture;
scoring is a plain mixture density over those plug-in parameters.

A spherical component is fitted as the diagonal one with a single Gamma
precision shared by every dimension: its rate is stored as (J, 1) and
broadcast over the D columns, so the two types share one M-step and one
E-step. The E-step yields both the expected log densities and the KL term of
the bound, so each expectation the two share is computed once per iteration;
prior-only terms are computed once per fit. A full-covariance iteration
factors each inverse scale matrix once and derives the rest from that factor.

The prior mean is the data mean, and each fit runs in its frame: the rows are
centred on it once, so the prior mean is zero in the iteration, every
family's scatter is the second moment minus beta m m^T (Bishop, PRML section
10.2), and a large offset cancels before any square is taken (Chan, Golub and
LeVeque, 1983). The plug-in adds the data mean back to the means.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dpotrf, dtrtri
from scipy.special import digamma, gammaln

from .errors import NumericalError, ValidationError

COVARIANCE_TYPES = ("spherical", "diagonal", "full")

LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class BgmmConfig:
    """Hyperparameters for one variational mixture fit.

    weight_concentration_prior defaults to 1/max_components; a
    precision_prior_rate of None means "empirical per-dimension variance",
    resolved against the data at fit time.
    """

    max_components: int = 10
    covariance_type: str = "diagonal"
    weight_concentration_prior: float | None = None
    mean_prior_strength: float = 1.0
    precision_prior_shape: float = 1.0
    precision_prior_rate: float | None = None
    variance_floor: float = 1e-6
    max_iterations: int = 200
    elbo_tolerance: float = 1e-6
    prune_threshold: float = 1e-2
    n_restarts: int = 1

    def validate(self) -> "BgmmConfig":
        if self.max_components < 1:
            raise ValidationError("max_components must be >= 1")
        if self.covariance_type not in COVARIANCE_TYPES:
            raise ValidationError(f"unknown covariance_type {self.covariance_type!r}")
        for name in ("mean_prior_strength", "precision_prior_shape",
                     "variance_floor", "elbo_tolerance"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.weight_concentration_prior is not None and self.weight_concentration_prior <= 0:
            raise ValidationError("weight_concentration_prior must be positive")
        if self.precision_prior_rate is not None and self.precision_prior_rate <= 0:
            raise ValidationError("precision_prior_rate must be positive")
        if self.max_iterations < 1 or self.n_restarts < 1:
            raise ValidationError("max_iterations and n_restarts must be >= 1")
        if not (0.0 < self.prune_threshold < 1.0):
            raise ValidationError("prune_threshold must lie in (0, 1)")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "BgmmConfig":
        """Build and validate a config; an unknown key or a value of the
        wrong type raises ValidationError naming the setting."""
        defaults = {f.name: f.default for f in fields(BgmmConfig)}
        for name, value in d.items():
            if name not in defaults:
                raise ValidationError(f"unknown bgmm setting {name!r}")
            default = defaults[name]
            if isinstance(default, str):
                ok, expected = isinstance(value, str), "a string"
            elif isinstance(default, int):
                ok, expected = isinstance(value, int) and not isinstance(value, bool), "an integer"
            else:  # a float, or None for a value derived from the data
                ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                      or value is None and default is None)
                expected = "a number"
            if not ok:
                raise ValidationError(f"bgmm setting {name!r} must be {expected}, got {value!r}")
        return BgmmConfig(**d).validate()


@dataclass(frozen=True)
class FittedMixture:
    """Pruned mixture with plug-in weights, means and covariances.

    covariances shape per type: (J,) spherical, (J, D) diagonal,
    (J, D, D) full.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    covariance_type: str
    metadata: dict

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
            "covariance_type": self.covariance_type,
            "metadata": self.metadata,
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")

    @staticmethod
    def from_dict(d: dict) -> "FittedMixture":
        return FittedMixture(
            weights=np.asarray(d["weights"], dtype=np.float64),
            means=np.asarray(d["means"], dtype=np.float64),
            covariances=np.asarray(d["covariances"], dtype=np.float64),
            covariance_type=str(d["covariance_type"]),
            metadata=dict(d["metadata"]),
        )


@dataclass
class VariationalState:
    """Posterior parameters and responsibilities of one fit, and its ELBO trace.

    alpha (J,) is the Dirichlet posterior, beta (J,) and means (J, D) the
    Gaussian one, with means relative to the data mean. shape (J,) and rate
    hold the Gamma precision posteriors (rate (J, 1) spherical, one precision
    per component; (J, D) diagonal); dof (J,) and w_inv (J, D, D), the
    inverse scale matrix, the Wishart posterior of the full structure.
    Unused fields stay None.
    """

    covariance_type: str
    responsibilities: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    means: np.ndarray
    shape: np.ndarray | None = None
    rate: np.ndarray | None = None
    dof: np.ndarray | None = None
    w_inv: np.ndarray | None = None
    elbo_trace: list = field(default_factory=list)

    def expected_weights(self) -> np.ndarray:
        return self.alpha / self.alpha.sum()


# ---------------------------------------------------------------------------
# numerical kernels
# ---------------------------------------------------------------------------

def _factor(mats: np.ndarray, what: str):
    """Lower Cholesky factors C of a (J, D, D) stack of SPD matrices, and
    their inverses C^-1 (lower triangular too).

    Each component makes two LAPACK calls: potrf, as in
    scipy.linalg.cholesky, so C is bit-identical to its factor without its
    per-call checks, and trtri, which inverts the triangle. The finite
    check runs once on the whole stack.
    """
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(f"{what} of component {int(np.argmin(finite))} is not finite")
    low = np.empty_like(mats)
    low_inv = np.empty_like(mats)
    for k in range(mats.shape[0]):
        c, info = dpotrf(mats[k], lower=1)
        if info:
            raise NumericalError(f"{what} of component {k} is not positive definite")
        low[k] = c
        low_inv[k] = dtrtri(c, lower=1)[0]
    return low, low_inv


def _centred_quad(X: np.ndarray, means: np.ndarray, low_inv: np.ndarray) -> np.ndarray:
    """(N, J), C-ordered, squared norms |C_j^-1 (x - m_j)|^2, i.e. the
    quadratic forms (x - m_j)^T (C_j C_j^T)^-1 (x - m_j), on rows centred on
    each component mean so that a large offset cancels before the product."""
    y = (X[None, :, :] - means[:, None, :]) @ low_inv.transpose(0, 2, 1)   # (J, N, D)
    return np.ascontiguousarray((y ** 2).sum(axis=2).T)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a 2-D array, bit-for-bit equal to
    scipy.special.logsumexp(a, axis=1) (scipy 1.17's algorithm).

    The maximal terms of each row are split out of the sum for precision;
    rows whose result is not finite fall back to the direct formula. Rows
    with -inf or NaN raise floating-point warnings unless the caller holds
    an np.errstate that ignores them.
    """
    a_max = a.max(axis=1, keepdims=True)
    is_max = a == a_max
    n_max = is_max.sum(axis=1, keepdims=True, dtype=a.dtype)
    rest = np.exp(np.where(is_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
    rest = np.where(rest == 0, rest, rest / n_max)
    out = (np.log1p(rest) + np.log(n_max) + a_max)[:, 0]
    finite = np.isfinite(out)
    if not finite.all():
        out = np.where(finite, out, np.log(np.exp(a).sum(axis=1)))
    return out


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

@dataclass
class _Priors:
    """Prior parameters, and the prior-only terms of the KL divergence."""

    alpha0: float
    beta0: float
    m0: np.ndarray               # data mean; the fit centres the rows on it
    a0: float                    # Gamma shape (spherical/diagonal)
    b0: np.ndarray               # Gamma rate: (1,) spherical, (D,) diagonal
    gammaln_j_alpha0: float      # gammaln(J * alpha0)
    j_gammaln_alpha0: float      # J * gammaln(alpha0)
    gammaln_a0: float
    log_b0: np.ndarray
    nu0: float | None = None     # Wishart dof (full)
    w0_inv: np.ndarray | None = None
    w0_logdet: float | None = None
    log_b_p: float | None = None  # log normaliser of the Wishart prior


def _resolve_priors(X: np.ndarray, config: BgmmConfig) -> _Priors:
    n, d = X.shape
    alpha0 = config.weight_concentration_prior
    if alpha0 is None:
        alpha0 = 1.0 / config.max_components
    m0 = X.mean(axis=0)
    emp_var = np.maximum(X.var(axis=0), config.variance_floor)
    a0 = config.precision_prior_shape
    if config.precision_prior_rate is not None:
        rate = np.full(d, config.precision_prior_rate)
    else:
        rate = emp_var
    j = config.max_components
    b0 = rate.mean(keepdims=True) if config.covariance_type == "spherical" else rate
    pri = _Priors(alpha0=alpha0, beta0=config.mean_prior_strength, m0=m0, a0=a0, b0=b0,
                  gammaln_j_alpha0=gammaln(j * alpha0), j_gammaln_alpha0=j * gammaln(alpha0),
                  gammaln_a0=gammaln(a0), log_b0=np.log(b0))
    if config.covariance_type == "full":
        # Wishart prior matching E[precision] = 1/rate per dimension
        pri.nu0 = d + a0
        pri.w0_inv = np.diag(pri.nu0 * rate)
        pri.w0_logdet = -float(np.sum(np.log(pri.nu0 * rate)))
        idx = np.arange(1, d + 1)
        pri.log_b_p = -0.5 * pri.nu0 * pri.w0_logdet - 0.5 * pri.nu0 * d * np.log(2.0) \
            - 0.25 * d * (d - 1) * np.log(np.pi) \
            - gammaln(0.5 * (pri.nu0 + 1 - idx)).sum()
    return pri


def _init_responsibilities(X: np.ndarray, n_components: int,
                           rng: np.random.Generator) -> np.ndarray:
    """One-hot assignment to farthest-point centers.

    The first center is the data point nearest a random probe drawn in the
    data bounding box, which keeps the start independent of row order.
    """
    n = X.shape[0]
    n_centers = min(n_components, n)
    probe = rng.uniform(X.min(axis=0), X.max(axis=0))
    first = int(np.argmin(np.linalg.norm(X - probe, axis=1)))
    # one distance column per center, kept for the final assignment
    dists = [np.linalg.norm(X - X[first], axis=1)]
    min_dist = dists[0]
    for _ in range(n_centers - 1):
        nxt = int(np.argmax(min_dist))
        dists.append(np.linalg.norm(X - X[nxt], axis=1))
        min_dist = np.minimum(min_dist, dists[-1])
    assign = np.argmin(np.stack(dists, axis=1), axis=1)
    resp = np.zeros((n, n_components))
    resp[np.arange(n), assign] = 1.0
    return resp


def _m_step(X: np.ndarray, x2: np.ndarray, resp: np.ndarray, pri: _Priors,
            state: VariationalState) -> None:
    """Posterior updates from the responsibilities, on rows centred on the
    prior mean; x2 is X ** 2."""
    d = X.shape[1]
    counts = resp.sum(axis=0)
    nk = counts + 1e-12
    beta = state.beta = pri.beta0 + nk
    m = state.means = (resp.T @ X) / beta[:, None]
    state.alpha = pri.alpha0 + counts

    # scatter about the prior mean (zero), the shrinkage of m included: the
    # weighted second moment minus beta m m^T
    if state.covariance_type != "full":
        scatter = np.maximum(resp.T @ x2 - beta[:, None] * m ** 2, 0.0)   # (J, D)
        if state.covariance_type == "spherical":
            scatter = scatter.sum(axis=1, keepdims=True)               # (J, 1)
        state.shape = pri.a0 + 0.5 * nk * (d / scatter.shape[1])
        state.rate = pri.b0[None, :] + 0.5 * scatter
    else:
        state.dof = pri.nu0 + nk
        w_inv = pri.w0_inv + (resp.T[:, :, None] * X).transpose(0, 2, 1) @ X \
            - beta[:, None, None] * (m[:, :, None] * m[:, None, :])
        state.w_inv = 0.5 * (w_inv + w_inv.transpose(0, 2, 1))


def _diag_quad(X: np.ndarray, x2: np.ndarray, prec: np.ndarray, means: np.ndarray) -> np.ndarray:
    """(N, J) quadratic forms sum_d prec_jd (x_d - m_jd)^2 in GEMM form; x2 is X ** 2."""
    return x2 @ prec.T - X @ (2.0 * prec * means).T + (prec * means ** 2).sum(axis=1)


def _e_step(X: np.ndarray, x2: np.ndarray, pri: _Priors,
            state: VariationalState) -> tuple[np.ndarray, float]:
    """Per-sample, per-component expected Gaussian log density + E[log pi]
    of rows centred on the prior mean (x2 is X ** 2), and KL(q || prior) for
    the weight and mean/precision posteriors. Each expectation the two share
    is computed once."""
    alpha, beta, m = state.alpha, state.beta, state.means
    d = m.shape[1]
    elog_pi = digamma(alpha) - digamma(alpha.sum())
    kl = gammaln(alpha.sum()) - pri.gammaln_j_alpha0 \
        + pri.j_gammaln_alpha0 - gammaln(alpha).sum() \
        + ((alpha - pri.alpha0) * elog_pi).sum()

    if state.covariance_type != "full":
        a, b = state.shape, state.rate
        digamma_a = digamma(a)
        log_b = np.log(b)
        # out= broadcasts a spherical rate (J, 1) over the D columns
        elog_lam = np.subtract(digamma_a[:, None], log_b, out=np.empty_like(m))   # (J, D)
        prec = np.divide(a[:, None], b, out=np.empty_like(m))
        log_dens = 0.5 * elog_lam.sum(axis=1) - 0.5 * d * LOG_2PI \
            - 0.5 * (_diag_quad(X, x2, prec, m) + d / beta)
        # summed over a spherical rate (J, 1), this is one Gamma per component
        kl += (d * (0.5 * np.log(beta / pri.beta0) - 0.5)
               + 0.5 * pri.beta0 * ((prec * m ** 2).sum(axis=1) + d / beta)).sum()
        kl += ((a[:, None] - pri.a0) * digamma_a[:, None]
               - gammaln(a)[:, None] + pri.gammaln_a0
               + pri.a0 * (log_b - pri.log_b0[None, :])
               + a[:, None] * (pri.b0[None, :] - b) / b).sum()
    else:
        # from one factor C = chol(w_inv): scale W = C^-T C^-1, log det W
        # = -2 sum(log diag C), and E[log det precision]
        nu = state.dof
        low, low_inv = _factor(state.w_inv, "inverse scale matrix")
        w = low_inv.transpose(0, 2, 1) @ low_inv
        logdet_w = -2.0 * np.log(np.diagonal(low, axis1=1, axis2=2)).sum(axis=1)
        wishart_arg = 0.5 * (nu[:, None] + 1 - np.arange(1, d + 1))          # (J, D)
        elog_det = digamma(wishart_arg).sum(axis=1) + d * np.log(2.0) + logdet_w
        log_dens = 0.5 * elog_det - 0.5 * d * LOG_2PI \
            - 0.5 * (nu * _centred_quad(X, m, low_inv) + d / beta)
        quad = (((nu[:, None] * m)[:, None, :] @ w) @ m[:, :, None])[:, 0, 0]
        mean_kl = 0.5 * d * np.log(beta / pri.beta0) - 0.5 * d \
            + 0.5 * pri.beta0 * (quad + d / beta)
        log_b_q = -0.5 * nu * logdet_w - 0.5 * nu * d * np.log(2.0) \
            - 0.25 * d * (d - 1) * np.log(np.pi) \
            - gammaln(wishart_arg).sum(axis=1)
        wishart_kl = log_b_q - pri.log_b_p + 0.5 * (nu - pri.nu0) * elog_det \
            + 0.5 * nu * (np.trace(pri.w0_inv @ w, axis1=1, axis2=2) - d)
        kl += (mean_kl + wishart_kl).sum()
    return elog_pi[None, :] + log_dens, float(kl)


def _fit_once(X: np.ndarray, x2: np.ndarray, config: BgmmConfig, pri: _Priors,
              rng: np.random.Generator) -> VariationalState:
    resp = _init_responsibilities(X, config.max_components, rng)
    state = VariationalState(
        covariance_type=config.covariance_type,
        responsibilities=resp,
        alpha=np.zeros(config.max_components),
        beta=np.zeros(config.max_components),
        means=np.zeros((config.max_components, X.shape[1])),
    )
    prev = -np.inf
    for _ in range(config.max_iterations):
        _m_step(X, x2, state.responsibilities, pri, state)
        log_dens, kl = _e_step(X, x2, pri, state)
        log_norm = _logsumexp(log_dens)
        state.responsibilities = np.exp(log_dens - log_norm[:, None])
        value = float(log_norm.sum()) - kl
        if not np.isfinite(value):
            raise NumericalError(
                f"evidence lower bound is not finite at iteration {len(state.elbo_trace) + 1}")
        state.elbo_trace.append(value)
        if abs(value - prev) < config.elbo_tolerance:
            break
        prev = value
    return state


def _plug_in(state: VariationalState, config: BgmmConfig, pri: _Priors,
             seed: int, restart: int) -> FittedMixture:
    weights = state.expected_weights()
    keep = weights >= config.prune_threshold
    fallback = False
    if not np.any(keep):
        keep = np.zeros_like(keep)
        keep[int(np.argmax(weights))] = True
        fallback = True
    n_pruned = int(np.sum(~keep))
    w = weights[keep]
    w = w / w.sum()
    means = state.means[keep] + pri.m0
    floor = config.variance_floor

    if config.covariance_type != "full":
        cov = np.maximum(state.rate[keep] / state.shape[keep][:, None], floor)
        if config.covariance_type == "spherical":
            cov = cov[:, 0]
    else:
        # inverse of the posterior-mean precision dof * W
        sigma = state.w_inv[keep] / state.dof[keep][:, None, None]
        cov = np.empty_like(sigma)
        for i in range(sigma.shape[0]):
            vals, vecs = eigh(sigma[i])
            vals = np.maximum(vals, floor)
            cov[i] = vecs @ np.diag(vals) @ vecs.T

    converged = len(state.elbo_trace) < config.max_iterations or (
        len(state.elbo_trace) >= 2
        and abs(state.elbo_trace[-1] - state.elbo_trace[-2]) < config.elbo_tolerance
    )
    meta = {
        "final_elbo": state.elbo_trace[-1],
        "iterations": len(state.elbo_trace),
        "components_pruned": n_pruned,
        "seed": seed,
        "restart": restart,
        "converged": bool(converged),
        "all_pruned_fallback": fallback,
        "scoring": "posterior-mean plug-in",
    }
    return FittedMixture(weights=w, means=means, covariances=cov,
                         covariance_type=config.covariance_type, metadata=meta)


def fit(data, config: BgmmConfig, seed: int):
    """Fit a variational mixture; returns (FittedMixture, VariationalState).

    Deterministic for fixed (data, config, seed). With n_restarts > 1 the
    restart with the highest final ELBO wins; ties go to the lowest index.
    Floating-point warnings are silenced: a fit that overflows raises
    NumericalError from its finite checks instead.
    """
    config.validate()
    X = np.asarray(data, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValidationError("data must be a non-empty list of equal-length vectors")
    if not np.all(np.isfinite(X)):
        raise ValidationError("data contains non-finite values")

    with np.errstate(all="ignore"):
        pri = _resolve_priors(X, config)
        X = X - pri.m0
        x2 = X ** 2
        rng = np.random.default_rng(seed)
        best_state = None
        best_restart = 0
        for r in range(config.n_restarts):
            state = _fit_once(X, x2, config, pri, rng)
            if best_state is None or state.elbo_trace[-1] > best_state.elbo_trace[-1]:
                best_state = state
                best_restart = r
        mixture = _plug_in(best_state, config, pri, seed, best_restart)
    return mixture, best_state


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _component_log_density(mix: FittedMixture, X: np.ndarray) -> np.ndarray:
    """(N, J) Gaussian log densities under the plug-in parameters.

    Diagonal and spherical: _diag_quad with precisions 1/var, on data and
    means centred on the mixture's weighted mean. Without the centring the
    expansion cancels catastrophically when |x| and |m| are large next to
    the spread (un-normalized features with a large offset).
    """
    d = mix.dim
    m = mix.means
    if mix.covariance_type != "full":
        var = mix.covariances  # (J, D) diagonal, (J,) spherical
        if mix.covariance_type == "spherical":
            var = np.repeat(var[:, None], d, axis=1)
        ref = mix.weights @ m
        xc = X - ref
        quad = _diag_quad(xc, xc ** 2, 1.0 / var, m - ref)
        return -0.5 * (d * LOG_2PI + np.log(var).sum(axis=1)[None, :] + quad)
    low, low_inv = _factor(mix.covariances, "covariance")
    quad = _centred_quad(X, m, low_inv)
    logdet = 2.0 * np.log(np.diagonal(low, axis1=1, axis2=2)).sum(axis=1)
    return -0.5 * (d * LOG_2PI + logdet[None, :] + quad)


def log_likelihood_batch(mix: FittedMixture, X) -> np.ndarray:
    """Mixture log density for a batch of points, via log-sum-exp."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != mix.dim:
        raise ValidationError(f"dimension mismatch: got {X.shape[1]}, mixture expects {mix.dim}")
    scores = _component_log_density(mix, X) + np.log(mix.weights)[None, :]
    with np.errstate(all="ignore"):
        return _logsumexp(scores)


def log_likelihood(mix: FittedMixture, x) -> float:
    """Mixture log density at a single point."""
    return float(log_likelihood_batch(mix, np.asarray(x, dtype=np.float64)[None, :])[0])
