"""Variational Bayesian Gaussian mixture estimation.

Conjugate model: Dirichlet prior on mixing weights, Gaussian prior on
component means, Gamma priors on precisions (spherical/diagonal) or a
Wishart prior (full). Fitting alternates closed-form posterior updates
with a log-sum-exp responsibility step and tracks the evidence lower bound.
After the first step, then every few steps, and at convergence, a merge move
tries to fold components that share one cluster into one (Ueda et al., "SMEM
Algorithm for Mixture Models", 2000; Hughes and Sudderth, "Memoized Online
Variational Inference for Dirichlet Process Mixture Models", 2013) and keeps
the merge only if it raises the bound. Components whose expected weight ends
below prune_threshold are dropped once, from the final posterior.

There is one step implementation, and it works on a stack: responsibilities
(C, N, J) against the shared rows (N, D), which broadcast and are never
copied, give posteriors with a leading C and one bound per candidate. A
plain step is a stack of one; a merge move scores all its candidates in one
step. Every candidate's results are bit-identical to those of its own step.

Point estimates (posterior means) populate the returned FittedMixture;
scoring is a plain mixture density over those plug-in parameters, and every
term of it that depends on the mixture alone is computed once, into one
record per mixture.

A spherical component is fitted as the diagonal one with a single Gamma
precision shared by every dimension: its rate is stored as (J, 1) and
broadcast over the D columns, so the two types share one M-step and one
E-step. The E-step yields both the expected log densities and the KL term of
the bound, so each expectation the two share is computed once per iteration;
the KL terms that depend on the priors alone are summed once per fit into one
number, kl0. A full-covariance iteration factors each inverse scale matrix
once, C C^T, and uses only C and C^-1.

The prior mean is the data mean, and each fit runs in its frame: the rows are
centred on it once, so the prior mean is zero in the iteration, every
family's scatter is the second moment minus beta m m^T (Bishop, PRML section
10.2), and a large offset cancels before any square is taken (Chan, Golub and
LeVeque, 1983). The plug-in adds the data mean back to the means.

Digamma and log Gamma come from _digamma_gammaln, in numpy: the recurrence
raises each argument by 8, then the asymptotic series apply (Bernardo,
"Algorithm AS 103: Psi (digamma) function", 1976; Stirling's series for log
Gamma). Cholesky factors and their inverses come from numpy's batched
linear algebra (_factor), so no run loads scipy.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, cached_property

import numpy as np
# numpy 2 loads numpy.random on first use (about 20 ms); load it with the
# module, not inside the first fit
import numpy.random  # noqa: F401

from .errors import NumericalError, ValidationError, is_integer, is_number

COVARIANCE_TYPES = ("spherical", "diagonal", "full")

LOG_2PI = np.log(2.0 * np.pi)
LOG_2 = np.log(2.0)
LOG_PI = np.log(np.pi)

# merge moves (see _fit_once): plain steps between moves, the most-overlapping
# pairs tried per move, and the least overlap a pair needs to be tried
MERGE_PERIOD = 3
MERGE_PAIRS = 3
MERGE_MIN_OVERLAP = 0.05


@dataclass(frozen=True)
class BgmmConfig:
    """Hyperparameters for one variational mixture fit.

    weight_concentration_prior defaults to 1/max_components; a
    precision_prior_rate of None means "empirical per-dimension variance",
    resolved against the data at fit time. A config checks itself when built.
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

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ValidationError(f"bgmm setting {name!r} is beyond the range of a float")
        if self.max_components < 1:
            raise ValidationError("max_components must be >= 1")
        if self.covariance_type not in COVARIANCE_TYPES:
            raise ValidationError(f"unknown covariance_type {self.covariance_type!r}")
        derived = ("weight_concentration_prior", "precision_prior_rate")  # None: from the data
        for name in ("mean_prior_strength", "precision_prior_shape", "variance_floor",
                     "elbo_tolerance", *derived):
            value = getattr(self, name)
            if not (value is None and name in derived or 0 < value < math.inf):  # NaN fails too
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")
        if self.max_iterations < 1 or self.n_restarts < 1:
            raise ValidationError("max_iterations and n_restarts must be >= 1")
        if not (0.0 < self.prune_threshold < 1.0):
            raise ValidationError("prune_threshold must lie in (0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "BgmmConfig":
        """Build a config; an unknown key or a value of the wrong type or
        range raises ValidationError naming the setting."""
        defaults = {f.name: f.default for f in fields(BgmmConfig)}
        for name, value in d.items():
            if name not in defaults:
                raise ValidationError(f"unknown bgmm setting {name!r}")
            default = defaults[name]
            if isinstance(default, str):
                ok, expected = isinstance(value, str), "a string"
            elif isinstance(default, int):
                ok, expected = is_integer(value), "an integer"
            else:  # a float, or None for a value derived from the data
                ok, expected = is_number(value) or value is None and default is None, "a number"
            if not ok:
                raise ValidationError(f"bgmm setting {name!r} must be {expected}, got {value!r}")
        return BgmmConfig(**d)


@dataclass(frozen=True)
class FittedMixture:
    """Pruned mixture with plug-in weights, means and covariances.

    covariances shape per type: (J,) spherical, (J, D) diagonal,
    (J, D, D) full. A full covariance is symmetric, mirrored from its lower
    triangle, and to_dict writes only that triangle: packed (J, D(D+1)/2)
    in row-major lower order, (0,0), (1,0), (1,1), (2,0), ... from_dict
    reads the packed layout and the older (J, D, D) one, whose upper
    triangle it ignores, and checks every shape and value. A mixture is
    frozen once fitted, so the terms that scoring needs of it, the Cholesky
    factor of its full covariances among them, are computed once: when it
    is first scored, or by from_dict, which checks that every covariance
    factors.
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

    @cached_property
    def _scoring_terms(self) -> tuple:
        """The terms of scoring that depend on the mixture alone, in order:
        the weighted mean ref; diagonal and spherical, the transposed
        precisions P^T, (2 P (m - ref))^T and sum_d P (m - ref)^2, or full,
        the inverse Cholesky factors C^-1, from _factor, and C^-1 (m - ref);
        d log 2pi + log det; and the log weights."""
        d = self.dim
        ref = self.weights @ self.means
        if self.covariance_type == "full":
            low, low_inv = _factor(self.covariances, "covariance")
            logdet = 2.0 * np.log(np.diagonal(low, axis1=1, axis2=2)).sum(axis=1)
            proj_m = (low_inv @ (self.means - ref)[..., None])[..., 0]
            return ref, low_inv, proj_m, d * LOG_2PI + logdet, np.log(self.weights)
        var = self.covariances  # (J, D) diagonal, (J,) spherical
        if self.covariance_type == "spherical":
            var = np.repeat(var[:, None], d, axis=1)
        prec, mc = 1.0 / var, self.means - ref
        return (ref, prec.T, (2.0 * prec * mc).T, (prec * mc ** 2).sum(axis=1),
                d * LOG_2PI + np.log(var).sum(axis=1), np.log(self.weights))

    def to_dict(self) -> dict:
        cov = self.covariances
        if self.covariance_type == "full":
            cov = _pack_lower(cov)
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": cov.tolist(),
            "covariance_type": self.covariance_type,
            "metadata": self.metadata,
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")

    @staticmethod
    def from_dict(d: dict) -> "FittedMixture":
        """Rebuild a mixture; an unknown covariance type, weights, means or
        covariances whose shapes do not fit one another, weights that are not
        a probability vector, means that are not finite, and variances or
        full covariances that are not positive (definite) raise
        ValidationError."""
        ct = d["covariance_type"]
        if ct not in COVARIANCE_TYPES:
            raise ValidationError(f"unknown covariance_type {ct!r}")
        weights, means, cov = (np.asarray(d[key], dtype=np.float64)
                               for key in ("weights", "means", "covariances"))
        j = len(weights) if weights.ndim == 1 else 0
        dim = means.shape[1] if means.ndim == 2 else 0
        shapes = {"spherical": [(j,)], "diagonal": [(j, dim)],
                  "full": [(j, dim * (dim + 1) // 2), (j, dim, dim)]}[ct]
        if not (j and dim and means.shape == (j, dim) and cov.shape in shapes):
            needed = {"spherical": "(J,)", "diagonal": "(J, D)",
                      "full": "(J, D(D+1)/2) or (J, D, D)"}[ct]
            raise ValidationError(
                f"{ct} mixture with weights {weights.shape}, means {means.shape} and "
                f"covariances {cov.shape}: needs (J,) with J >= 1, (J, D) and {needed}")
        if not (np.isfinite(weights).all() and (weights > 0).all()
                and abs(weights.sum() - 1.0) <= 1e-9):
            raise ValidationError(f"weights must be positive and sum to 1, got {weights.tolist()}")
        if not np.isfinite(means).all():
            raise ValidationError("means must be finite")
        if ct == "full":
            cov = _unpack_lower(_pack_lower(cov) if cov.ndim == 3 else cov, dim)
        elif not (np.isfinite(cov).all() and (cov > 0).all()):
            raise ValidationError("variances must be finite and positive")
        mix = FittedMixture(weights=weights, means=means, covariances=cov,
                            covariance_type=ct, metadata=dict(d["metadata"]))
        if ct == "full":
            try:
                mix._scoring_terms  # factors the covariances once; scoring reuses the factor
            except NumericalError as exc:
                raise ValidationError(str(exc)) from exc
        return mix


@dataclass
class VariationalState:
    """Posterior parameters and responsibilities of one fit, and its ELBO trace.

    alpha (J,) is the Dirichlet posterior, beta (J,) and means (J, D) the
    Gaussian one, with means relative to the data mean. shape (J,) and rate
    hold the Gamma precision posteriors (rate (J, 1) spherical, one precision
    per component; (J, D) diagonal); dof (J,) and w_inv (J, D, D), the
    inverse scale matrix, the Wishart posterior of the full structure.
    Unused fields, and posteriors not yet computed, stay None. elbo_trace
    holds one bound per plain step or accepted merge move, merges counts the
    accepted moves, and converged is the fit's own stopping decision.

    Inside a fit, every array carries a leading axis of C candidates (C = 1
    between merge moves), so that one step scores them all; fit returns the
    chosen state without it.
    """

    covariance_type: str
    responsibilities: np.ndarray
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    means: np.ndarray | None = None
    shape: np.ndarray | None = None
    rate: np.ndarray | None = None
    dof: np.ndarray | None = None
    w_inv: np.ndarray | None = None
    elbo_trace: list = field(default_factory=list)
    merges: int = 0
    converged: bool = False

    def expected_weights(self) -> np.ndarray:
        return self.alpha / self.alpha.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# numerical kernels
# ---------------------------------------------------------------------------

# Bernoulli numbers B_2, B_4, ..., B_14
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
# the rows that _digamma_gammaln builds for each argument x, with z = x + 8:
# 1; x + k, log(x + k) and 1/(x + k) for k = 0..8; then 1/z**2 .. 1/z**13,
# which continue the 1/z row into the powers of 1/z
_SHIFTS = np.arange(9.0)[:, None, None]
_SHIFTED = slice(1, 10)
_LOGS = slice(10, 19)
_RECIPROCALS = slice(19, 28)
_POWERS = slice(27, 40)


def _digamma_gammaln_coefficients() -> np.ndarray:
    """(2, 40): digamma (row 0) and log Gamma (row 1) of x as combinations
    of _digamma_gammaln's rows, the z log z term of log Gamma apart:

        psi(x) = log z - 1/(2z) - sum_n B_2n / (2n z**2n) - sum_k 1/(x + k)
        log Gamma(x) = z log z - z - (log z)/2 + log(2 pi)/2
                       + sum_n B_2n / (2n (2n - 1) z**(2n-1)) - sum_k log(x + k)

    with k = 0..7 and z = x + 8. The sums over k are the recurrences psi(x)
    = psi(x + 1) - 1/x and log Gamma(x) = log Gamma(x + 1) - log x; the
    rest are the asymptotic series of both functions at z."""
    coef = np.zeros((2, _POWERS.stop))
    coef[1, 0] = 0.5 * LOG_2PI
    coef[1, _SHIFTED.stop - 1] = -1.0                  # z
    coef[:, _LOGS.stop - 1] = [1.0, -0.5]              # log z
    coef[1, _LOGS.start:_LOGS.stop - 1] = -1.0         # log(x + k), k < 8
    coef[0, _RECIPROCALS.start:_RECIPROCALS.stop - 1] = -1.0   # 1/(x + k), k < 8
    series = coef[:, _POWERS]                          # 1/z**k in column k - 1
    series[0, 0] = -0.5
    for n, b in enumerate(_BERNOULLI, start=1):
        if 2 * n <= series.shape[1]:
            series[0, 2 * n - 1] = -b / (2 * n)
        series[1, 2 * n - 2] = b / (2 * n * (2 * n - 1))
    return coef


_DIGAMMA_GAMMALN = _digamma_gammaln_coefficients()


def _digamma_gammaln(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digamma and log Gamma of an array of positive arguments, in one pass.

    Each x is raised to z = x + 8 by the recurrences, and both functions of
    z come from their asymptotic series up to 1/z**13 (see
    _digamma_gammaln_coefficients); at z >= 8 the first omitted term is
    below 2e-14. One matrix product per row of x sums every term but z log
    z, so the cost is a fixed number of numpy calls, and each row of a (C,
    n) x is bit-identical to its own (n,) call. A NaN argument gives NaN.
    """
    xs = x.reshape(-1, x.shape[-1])                     # (C, n)
    rows = np.empty((_POWERS.stop,) + xs.shape)
    rows[0] = 1.0
    shifted = np.add(xs, _SHIFTS, out=rows[_SHIFTED])
    log_shifted = np.log(shifted, out=rows[_LOGS])
    np.divide(1.0, shifted, out=rows[_RECIPROCALS])
    powers = rows[_POWERS]
    powers[1:] = powers[0]
    np.multiply.accumulate(powers, out=powers)
    terms = _DIGAMMA_GAMMALN @ rows.transpose(1, 0, 2)   # (C, 2, n)
    psi, lg = terms[:, 0], terms[:, 1]
    lg += shifted[-1] * log_shifted[-1]
    return psi.reshape(x.shape), lg.reshape(x.shape)


def _factor(mats: np.ndarray, what: str):
    """Lower Cholesky factors C of a (..., J, D, D) stack of SPD matrices,
    and their inverses C^-1, exactly lower triangular.

    Both come from numpy's batched calls: cholesky, then inv of the
    triangle's two diagonal halves (one block step), and a cached mask
    zeroes the upper part. The finite check runs once on the whole stack.
    Only when the stack fails to factor are its matrices factored one by
    one, to name the component j of the first that is not positive definite.
    """
    j = mats.shape[-3]
    if not np.isfinite(mats).all():
        finite = np.isfinite(mats).all(axis=(-2, -1)).ravel()
        raise NumericalError(f"{what} of component {int(np.argmin(finite)) % j} is not finite")
    try:
        low = np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        for k, mat in enumerate(mats.reshape((-1,) + mats.shape[-2:])):
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                raise NumericalError(f"{what} of component {k % j} is not positive definite") \
                    from None
        raise
    # C = [[A, 0], [B, E]] has C^-1 = [[A^-1, 0], [-E^-1 B A^-1, E^-1]]; at D = 1, A is empty
    d, h = low.shape[-1], low.shape[-1] // 2
    a, e = low[..., :h, :h], low[..., h:, h:]   # one inv call when they match
    a_inv, e_inv = np.linalg.inv(np.stack((a, e))) if d % 2 == 0 else map(np.linalg.inv, (a, e))
    low_inv = np.empty_like(low)
    low_inv[..., :h, :h], low_inv[..., h:, h:] = a_inv, e_inv
    low_inv[..., h:, :h] = -(e_inv @ low[..., h:, :h]) @ a_inv
    low_inv[..., _upper(d)] = 0.0
    return low, low_inv


@cache
def _upper(d: int) -> np.ndarray:
    """(D, D) mask of the entries above the diagonal, read-only: it is shared."""
    return np.broadcast_to(~np.tri(d, dtype=bool), (d, d))


def _pack_lower(mats: np.ndarray) -> np.ndarray:
    """The lower triangles of a (J, D, D) stack, packed (J, D(D+1)/2) in
    row-major order: (0,0), (1,0), (1,1), (2,0), ..."""
    return mats[:, np.tri(mats.shape[1], dtype=bool)]


def _unpack_lower(packed: np.ndarray, d: int) -> np.ndarray:
    """(J, D, D) symmetric matrices from their packed lower triangles (see
    _pack_lower)."""
    low = np.tri(d, dtype=bool)
    out = np.empty((len(packed), d, d))
    out[:, low] = packed
    out.swapaxes(1, 2)[:, low] = packed
    return out


def _quad(X: np.ndarray, low_inv: np.ndarray, proj_m: np.ndarray) -> np.ndarray:
    """(..., N, J) squared norms |C_j^-1 x - C_j^-1 m_j|^2, the forms (x -
    m_j)^T (C_j C_j^T)^-1 (x - m_j), for inverse factors low_inv (..., J, D,
    D) and proj_m = C^-1 m (..., J, D), on rows centred near the means. One
    product per leading index projects the rows through all J factors, so a
    candidate's forms do not depend on the rest of its stack."""
    *lead, j, d, _ = low_inv.shape
    y = X @ low_inv.reshape(*lead, j * d, d).swapaxes(-1, -2)   # (..., N, J D)
    y = y.reshape(*lead, -1, j, d)
    y -= proj_m[..., None, :, :]
    return np.square(y, out=y).sum(axis=-1)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=-1)), shifted by each row's maximum
    (Blanchard, Higham and Higham, IMA J. Numer. Anal. 2021).

    A row maximum that is not finite is replaced by 0, so an all -inf row
    gives -inf, a +inf entry gives +inf and a NaN propagates. Such rows raise
    floating-point warnings unless the caller holds an np.errstate that
    ignores them.
    """
    a_max = a.max(axis=-1, keepdims=True)
    a_max = np.where(np.isfinite(a_max), a_max, 0.0)
    return np.log(np.exp(a - a_max).sum(axis=-1)) + a_max[..., 0]


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

@dataclass
class _Priors:
    """Prior parameters, and kl0, the sum of the terms of KL(q || prior)
    that depend on the priors alone."""

    alpha0: float
    beta0: float
    m0: np.ndarray               # data mean; the fit centres the rows on it
    a0: float                    # Gamma shape (spherical/diagonal)
    b0: np.ndarray               # Gamma rate: (1,) spherical, (D,) diagonal
    kl0: float
    nu0: float | None = None     # Wishart dof (full)
    w0_diag: np.ndarray | None = None  # the diagonal of the Wishart prior's W0^-1


def _alpha0(config: BgmmConfig) -> float:
    alpha0 = config.weight_concentration_prior
    return 1.0 / config.max_components if alpha0 is None else alpha0


@cache
def _prior_kl0(config: BgmmConfig, d: int) -> float:
    """The part of kl0 that depends on the config and D alone (see
    _resolve_priors): the Dirichlet J gammaln(alpha0) - gammaln(J alpha0),
    and gammaln(a0) per Gamma prior or, full, per component minus the
    Wishart prior's log normaliser without its log det W0 term."""
    alpha0, a0, j = _alpha0(config), config.precision_prior_shape, config.max_components
    nu0 = d + a0   # Wishart prior dof (full)
    wishart_arg = 0.5 * (nu0 + 1 - np.arange(1, d + 1)) if config.covariance_type == "full" else ()
    _, lg = _digamma_gammaln(np.array([j * alpha0, alpha0, a0, *wishart_arg]))
    kl0 = j * lg[1] - lg[0]
    if config.covariance_type == "full":
        return kl0 + j * (0.5 * nu0 * d * LOG_2 + 0.25 * d * (d - 1) * LOG_PI + lg[3:].sum())
    return kl0 + j * (d if config.covariance_type == "diagonal" else 1) * lg[2]


def _resolve_priors(X: np.ndarray, config: BgmmConfig) -> _Priors:
    """The priors of a fit to X. kl0 is _prior_kl0 plus, per component, the
    terms set by the prior rates: -a0 log b0 summed over the Gamma rates or,
    full, -nu0/2 log det W0^-1."""
    n, d = X.shape
    alpha0 = _alpha0(config)
    m0 = X.mean(axis=0)
    emp_var = np.maximum(X.var(axis=0), config.variance_floor)
    a0 = config.precision_prior_shape
    if config.precision_prior_rate is not None:
        rate = np.full(d, config.precision_prior_rate)
    else:
        rate = emp_var
    b0 = rate.mean(keepdims=True) if config.covariance_type == "spherical" else rate
    pri = _Priors(alpha0=alpha0, beta0=config.mean_prior_strength, m0=m0, a0=a0, b0=b0,
                  kl0=_prior_kl0(config, d))
    if config.covariance_type != "full":
        rate_term = a0 * np.sum(np.log(b0))
    else:
        nu0 = d + a0   # Wishart prior dof
        # Wishart prior matching E[precision] = 1/rate per dimension
        pri.nu0 = nu0
        pri.w0_diag = nu0 * rate
        rate_term = 0.5 * nu0 * np.sum(np.log(pri.w0_diag))
    pri.kl0 -= config.max_components * float(rate_term)
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
    # each row's nearest center so far; a tie stays with the earlier center
    min_dist = np.sqrt(np.square(X - X[first]).sum(axis=1))
    assign = np.zeros(n, dtype=np.intp)
    for k in range(1, n_centers):
        dist = np.sqrt(np.square(X - X[int(np.argmax(min_dist))]).sum(axis=1))
        assign[dist < min_dist] = k
        min_dist = np.minimum(min_dist, dist)
    resp = np.zeros((n, n_components))
    resp[np.arange(n), assign] = 1.0
    return resp


def _take(state: VariationalState, index) -> VariationalState:
    """The state with every array indexed by index on its leading axis: an
    integer picks one candidate of a stack, a slice a smaller stack. The
    trace and the merge count are shared."""
    taken = copy.copy(state)
    for name, value in vars(state).items():
        if isinstance(value, np.ndarray):
            setattr(taken, name, value[index])
    return taken


def _m_step(X: np.ndarray, x2: np.ndarray, pri: _Priors, state: VariationalState) -> None:
    """Posterior updates from a stack of responsibilities (C, N, J), on rows
    centred on the prior mean; x2 is X ** 2. X and x2 broadcast over the
    stack."""
    resp = state.responsibilities
    d = X.shape[1]
    counts = resp.sum(axis=1)                                          # (C, J)
    nk = counts + 1e-12
    beta = state.beta = pri.beta0 + nk
    resp_t = resp.transpose(0, 2, 1)                                   # (C, J, N)
    m = state.means = (resp_t @ X) / beta[..., None]                  # (C, J, D)
    state.alpha = pri.alpha0 + counts

    # scatter about the prior mean (zero), the shrinkage of m included: the
    # weighted second moment minus beta m m^T
    if state.covariance_type != "full":
        scatter = np.maximum(resp_t @ x2 - beta[..., None] * m ** 2, 0.0)   # (C, J, D)
        if state.covariance_type == "spherical":
            scatter = scatter.sum(axis=2, keepdims=True)               # (C, J, 1)
        state.shape = pri.a0 + 0.5 * nk * (d / scatter.shape[2])
        state.rate = pri.b0 + 0.5 * scatter
    else:
        state.dof = pri.nu0 + nk
        w_inv = (resp_t[..., None] * X).swapaxes(2, 3) @ X
        diag = np.arange(d)
        w_inv[..., diag, diag] += pri.w0_diag   # W0^-1 is diagonal
        w_inv -= beta[..., None, None] * (m[..., :, None] * m[..., None, :])
        state.w_inv = 0.5 * (w_inv + w_inv.swapaxes(2, 3))


def _diag_quad(X: np.ndarray, x2: np.ndarray, prec_t: np.ndarray, cross_t: np.ndarray,
               prec_m2: np.ndarray) -> np.ndarray:
    """(..., N, J) quadratic forms sum_d prec_jd (x_d - m_jd)^2 in GEMM form,
    for precisions and means (..., J, D): x2 is X ** 2, prec_t (..., D, J)
    the transposed precisions, cross_t (..., D, J) the transpose of 2 prec
    m, and prec_m2 (..., J) sum_d prec_jd m_jd^2."""
    return x2 @ prec_t - X @ cross_t + prec_m2[..., None, :]


def _e_step(X: np.ndarray, x2: np.ndarray, pri: _Priors,
            state: VariationalState) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample, per-component expected Gaussian log density + E[log pi]
    of rows centred on the prior mean (x2 is X ** 2), (C, N, J), and KL(q ||
    prior) for the weight and mean/precision posteriors, (C,), of a stack of
    C posteriors. Each expectation the two share is computed once, and one
    _digamma_gammaln call covers the step: alpha (C, J), its sum, and the
    Gamma shapes (C, J) or the Wishart arguments (C, J, D)."""
    alpha, beta, m = state.alpha, state.beta, state.means
    c, j, d = m.shape
    d_beta = d / beta
    alpha_sum = alpha.sum(axis=1)
    if state.covariance_type != "full":
        gamma_arg = state.shape
    else:
        nu = state.dof
        gamma_arg = 0.5 * (nu[..., None] + 1 - np.arange(1, d + 1))       # (C, J, D)
    psi, lg = _digamma_gammaln(
        np.concatenate((alpha, alpha_sum[:, None], gamma_arg.reshape(c, -1)), axis=1))
    elog_pi = psi[:, :j] - psi[:, j, None]
    kl = pri.kl0 + lg[:, j] - lg[:, :j].sum(axis=1) + ((alpha - pri.alpha0) * elog_pi).sum(axis=1)

    if state.covariance_type != "full":
        a, b = state.shape, state.rate
        digamma_a, gammaln_a = psi[:, j + 1:], lg[:, j + 1:]
        log_b = np.log(b)
        # out= broadcasts a spherical rate (C, J, 1) over the D columns
        elog_lam = np.subtract(digamma_a[..., None], log_b, out=np.empty_like(m))   # (C, J, D)
        prec = np.divide(a[..., None], b, out=np.empty_like(m))
        prec_m2 = (prec * m ** 2).sum(axis=2)
        log_dens = 0.5 * elog_lam.sum(axis=2)[:, None, :] - 0.5 * d * LOG_2PI \
            - 0.5 * (_diag_quad(X, x2, prec.swapaxes(1, 2), (2.0 * prec * m).swapaxes(1, 2),
                                prec_m2) + d_beta[:, None, :])
        # summed over a spherical rate (C, J, 1), this is one Gamma per component
        kl += (d * (0.5 * np.log(beta / pri.beta0) - 0.5)
               + 0.5 * pri.beta0 * (prec_m2 + d_beta)).sum(axis=1)
        kl += ((a[..., None] - pri.a0) * digamma_a[..., None]
               - gammaln_a[..., None] + pri.a0 * log_b
               + a[..., None] * (pri.b0 - b) / b).reshape(c, -1).sum(axis=1)
    else:
        # from one factor C = chol(w_inv), scale W = C^-T C^-1: log det W = -2 sum(log diag C),
        # m^T W m = |C^-1 m|^2 and, W0^-1 being diagonal, tr(W0^-1 W) = sum_d w0_d |C^-1 e_d|^2
        digamma_sum, gammaln_sum = (v[:, j + 1:].reshape(c, j, d).sum(axis=2) for v in (psi, lg))
        low, low_inv = _factor(state.w_inv, "inverse scale matrix")
        proj_m = (low_inv @ m[..., None])[..., 0]
        logdet_w = -2.0 * np.log(np.diagonal(low, axis1=2, axis2=3)).sum(axis=2)
        elog_det = digamma_sum + d * LOG_2 + logdet_w
        log_dens = (0.5 * elog_det - 0.5 * d * LOG_2PI)[:, None, :] \
            - 0.5 * (nu[:, None, :] * _quad(X, low_inv, proj_m) + d_beta[:, None, :])
        mean_kl = 0.5 * d * np.log(beta / pri.beta0) - 0.5 * d \
            + 0.5 * pri.beta0 * (nu * (proj_m ** 2).sum(axis=2) + d_beta)
        log_b_q = -0.5 * nu * logdet_w - 0.5 * nu * d * LOG_2 \
            - 0.25 * d * (d - 1) * LOG_PI - gammaln_sum
        wishart_kl = log_b_q + 0.5 * (nu - pri.nu0) * elog_det \
            + 0.5 * nu * ((pri.w0_diag * (low_inv ** 2).sum(axis=2)).sum(axis=2) - d)
        kl += (mean_kl + wishart_kl).sum(axis=1)
    return elog_pi[:, None, :] + log_dens, kl


def _step(X: np.ndarray, x2: np.ndarray, pri: _Priors, state: VariationalState) -> np.ndarray:
    """One variational step for each of a stack of C candidates, from
    state.responsibilities (C, N, J): M-step, E-step and new
    responsibilities, in place. Returns the C bounds, which must be finite.
    A candidate's results do not depend on the others in the stack."""
    _m_step(X, x2, pri, state)
    log_dens, kl = _e_step(X, x2, pri, state)
    log_norm = _logsumexp(log_dens)
    state.responsibilities = np.exp(log_dens - log_norm[..., None])
    values = log_norm.sum(axis=1) - kl
    if not np.isfinite(values).all():
        raise NumericalError(
            f"evidence lower bound is not finite at iteration {len(state.elbo_trace) + 1}")
    return values


def _merge_candidates(state: VariationalState, config: BgmmConfig, collapse: bool):
    """Merged responsibilities to try from a stack of one state, stacked
    (C, N, J), or None: with collapse, first every live component collapsed
    into the first; then the MERGE_PAIRS live pairs of highest responsibility
    overlap at or above MERGE_MIN_OVERLAP, with column b added to column a <
    b and zeroed. A live component has expected weight >= prune_threshold;
    the stable sort ranks tied pairs by index."""
    resp = state.responsibilities[0]
    live = np.flatnonzero(state.expected_weights()[0] >= config.prune_threshold)
    if live.size < 2:
        return None
    cols = resp[:, live]
    out = []
    if collapse:
        merged = resp.copy()
        merged[:, live[0]] = cols.sum(axis=1)
        merged[:, live[1:]] = 0.0
        out.append(merged)
        if live.size == 2:   # the only pair is the collapse
            return merged[None]
    gram = cols.T @ cols
    norms = np.sqrt(np.diag(gram))
    # the pairs a < b in np.triu_indices(live.size, 1) order, without its overhead
    ia, ib = np.nonzero(_upper(live.size))
    overlap = gram[ia, ib] / (norms[ia] * norms[ib])
    for p in np.argsort(-overlap, kind="stable")[:MERGE_PAIRS]:
        if not overlap[p] >= MERGE_MIN_OVERLAP:   # NaN, from an empty column, too
            break
        a, b = live[ia[p]], live[ib[p]]
        merged = resp.copy()
        merged[:, a] += merged[:, b]
        merged[:, b] = 0.0
        out.append(merged)
    return np.stack(out) if out else None


def _fit_once(X: np.ndarray, x2: np.ndarray, config: BgmmConfig, pri: _Priors,
              rng: np.random.Generator) -> VariationalState:
    """Plain steps until the bound moves by less than elbo_tolerance, with a
    merge move after plain step 1, then every MERGE_PERIOD plain steps
    (steps 1, 4, 7, ...), and at convergence. The trace holds one value per
    plain step or accepted merge, at most max_iterations. converged is set by
    each plain step and cleared by an accepted merge, so a fit that
    max_iterations cuts right after a merge is not converged.

    A move scores all its candidates by one stacked step from their merged
    responsibilities and continues from the best one if that bound is
    strictly above the last trace value, so the trace stays monotone; ties
    go to the earliest candidate. The arrays keep all J columns: a
    merged-away component keeps alpha0 in the Dirichlet sums, so bounds stay
    comparable within the fit. The collapse candidate is dropped for the
    rest of the fit once it fails to raise the bound.

    The first move comes after one step because, on data from one cluster,
    it is accepted there and the fit converges one step later. A move after
    every step would score candidates after each of the many steps of a fit
    that never merges, so moves wait MERGE_PERIOD steps after the first.
    """
    state = VariationalState(
        covariance_type=config.covariance_type,
        responsibilities=_init_responsibilities(X, config.max_components, rng)[None])
    trace = state.elbo_trace
    collapse = True
    while len(trace) < config.max_iterations:
        value = float(_step(X, x2, pri, state)[0])
        state.converged = bool(trace) and abs(value - trace[-1]) < config.elbo_tolerance
        trace.append(value)
        plain = len(trace) - state.merges
        if len(trace) < config.max_iterations and (state.converged or (plain - 1) % MERGE_PERIOD == 0):
            resp = _merge_candidates(state, config, collapse)
            if resp is not None:
                stack = replace(state, responsibilities=resp)
                bounds = _step(X, x2, pri, stack)
                collapse = collapse and bounds[0] > value
                best = int(np.argmax(bounds))
                if bounds[best] > value:
                    state = _take(stack, slice(best, best + 1))
                    state.merges += 1
                    state.converged = False
                    trace.append(float(bounds[best]))
                    continue
        if state.converged:
            break
    return _take(state, 0)


# the fit metadata that _plug_in writes: key -> (check, what it requires)
_COUNT = (lambda v: is_integer(v) and v >= 0, "an integer >= 0")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
FIT_METADATA = {
    "final_elbo": (lambda v: is_number(v) and abs(v) <= sys.float_info.max, "a finite number"),
    "iterations": (lambda v: is_integer(v) and v >= 1, "an integer >= 1"),
    "merges": _COUNT,
    "components_pruned": _COUNT,
    "seed": (is_integer, "an integer"),
    "restart": _COUNT,
    "converged": _FLAG,
    "all_pruned_fallback": _FLAG,
}


def _plug_in(state: VariationalState, config: BgmmConfig, pri: _Priors,
             seed: int, restart: int) -> FittedMixture:
    """Prune the state and return its posterior-mean mixture: weights
    renormalised over the kept components, means moved back by the data
    mean, and covariances with variances (eigenvalues, for full) floored at
    variance_floor. A full covariance is mirrored from its lower triangle,
    the one that _factor reads and to_dict writes."""
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
        vals, vecs = np.linalg.eigh(state.w_inv[keep] / state.dof[keep][:, None, None])
        cov = (vecs * np.maximum(vals, floor)[:, None, :]) @ vecs.transpose(0, 2, 1)
        cov = _unpack_lower(_pack_lower(cov), cov.shape[1])

    meta = {
        "final_elbo": state.elbo_trace[-1],
        "iterations": len(state.elbo_trace),
        "merges": state.merges,
        "components_pruned": n_pruned,
        "seed": seed,
        "restart": restart,
        "converged": state.converged,
        "all_pruned_fallback": fallback,
    }
    return FittedMixture(weights=w, means=means, covariances=cov,
                         covariance_type=config.covariance_type, metadata=meta)


def fit(data, config: BgmmConfig, seed: int):
    """Fit a variational mixture to the rows of a non-empty (N, D) matrix;
    returns (FittedMixture, VariationalState).

    Deterministic for fixed (data, config, seed). With n_restarts > 1 the
    restart with the highest final ELBO wins; ties go to the lowest index.
    Floating-point warnings are silenced: a fit that overflows raises
    NumericalError from its finite checks instead.
    """
    X = np.asarray(data, dtype=np.float64)
    if X.ndim != 2 or 0 in X.shape:
        raise ValidationError(f"data must be a non-empty (N, D) matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValidationError("data contains non-finite values")

    with np.errstate(all="ignore"):
        pri = _resolve_priors(X, config)
        X = X - pri.m0
        x2 = X ** 2
        rng = np.random.default_rng(seed)
        states = [_fit_once(X, x2, config, pri, rng) for _ in range(config.n_restarts)]
        best = max(range(config.n_restarts), key=lambda r: states[r].elbo_trace[-1])
        mixture = _plug_in(states[best], config, pri, seed, best)
    return mixture, states[best]


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _component_log_density(mix: FittedMixture, X: np.ndarray) -> np.ndarray:
    """(N, J) Gaussian log densities under the plug-in parameters.

    The quadratic forms come from _diag_quad with precisions 1/var
    (diagonal and spherical) or from _quad, on data and means centred on the
    mixture's weighted mean. Without the centring the forms cancel
    catastrophically when |x| and |m| are large next to the spread
    (un-normalized features with a large offset). Every term that depends
    on the mixture alone is computed once per mixture
    (FittedMixture._scoring_terms).
    """
    ref, *terms, const, _ = mix._scoring_terms
    xc = X - ref
    quad = _quad(xc, *terms) if mix.covariance_type == "full" else _diag_quad(xc, xc ** 2, *terms)
    return -0.5 * (const[None, :] + quad)


def log_likelihood_batch(mix: FittedMixture, X) -> np.ndarray:
    """Mixture log density of each row of an (N, D) matrix, via log-sum-exp."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != mix.dim:
        raise ValidationError(f"shape mismatch: got {X.shape}, mixture expects rows of {mix.dim}")
    scores = _component_log_density(mix, X) + mix._scoring_terms[-1][None, :]
    with np.errstate(all="ignore"):
        return _logsumexp(scores)


def log_likelihood(mix: FittedMixture, x) -> float:
    """Mixture log density at a single point."""
    return float(log_likelihood_batch(mix, np.asarray(x, dtype=np.float64)[None, :])[0])
