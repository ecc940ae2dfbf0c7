"""Two-component model of one-sided t-test p-values.

A truly inactive voxel produces standard-uniform p-values; a truly active
voxel produces p-values whose statistic follows a non-central t. With lam
the probability of true activation and delta the effect size, the observed
p-value density is

    f(p) = (1 - lam) + lam * psi_{nu,delta}(x) / psi_nu(x),   x = Psi_nu^{-1}(1 - p)

and the CDF is (1 - lam) * p + lam * power(p), where power(tau) is the
probability that an active voxel's p-value falls at or below tau. The
density ratio is always evaluated as an exp of a log difference: both
densities underflow far out in the tail, their ratio does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import special

__all__ = [
    "CLAMP_LO",
    "CLAMP_HI",
    "MixtureParams",
    "PValueVector",
    "clamp_pvalues",
    "power",
    "mixture_logpdf",
    "mixture_pdf",
    "mixture_cdf",
    "voxel_loglik",
]

# boundary p-values (rounding artifacts of upstream software) are pulled
# inside the open interval where the density ratio is finite
CLAMP_LO = 1e-12
CLAMP_HI = 1.0 - 1e-12


@dataclass(frozen=True)
class MixtureParams:
    """Mixture weight lam in [0, 1] and non-centrality delta >= 0.

    Either two floats for one voxel or two arrays of one shape, one entry
    per voxel; the certainty functions take both forms. The estimation layer
    restricts itself to lam in (0, 1) and delta > 1; the model itself is
    happy on the closed boundaries (lam = 0 or 1 are the pure-uniform and
    pure-alternative cases, delta = 0 collapses onto the central t).
    """

    lam: float | np.ndarray
    delta: float | np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=np.float64)
        delta = np.asarray(self.delta, dtype=np.float64)
        if lam.shape != delta.shape:
            raise ValueError(f"lam and delta shapes differ: {lam.shape} vs {delta.shape}")
        bad = ~(np.isfinite(lam) & (lam >= 0.0) & (lam <= 1.0))
        if bad.any():
            raise ValueError(f"lam must be in [0, 1], got {float(lam[bad].flat[0])!r}")
        bad = ~(np.isfinite(delta) & (delta >= 0.0))
        if bad.any():
            raise ValueError(f"delta must be finite and >= 0, got {float(delta[bad].flat[0])!r}")
        scalar = lam.ndim == 0
        object.__setattr__(self, "lam", float(lam) if scalar else lam)
        object.__setattr__(self, "delta", float(delta) if scalar else delta)


class PValueVector:
    """The M replicated p-values of one voxel plus per-replication dof.

    Values are clamped into [CLAMP_LO, CLAMP_HI] at construction; the number
    of values that needed clamping is kept for diagnostics.
    """

    __slots__ = ("values", "dofs", "n_clamped")

    def __init__(self, values, dofs):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-D array")
        if np.isscalar(dofs) or np.ndim(dofs) == 0:
            dofs = np.full(values.size, float(dofs))
        dofs = np.asarray(dofs, dtype=np.float64)
        if dofs.shape != values.shape:
            raise ValueError("values and dofs must have equal length")
        if not np.isfinite(dofs).all() or (dofs <= 0.0).any():
            raise ValueError("all dofs must be finite and positive")
        if not np.isfinite(values).all() or (values < 0.0).any() or (values > 1.0).any():
            raise ValueError("p-values must lie in [0, 1]")
        clamped, n_clamped = clamp_pvalues(values)
        self.values = clamped
        self.dofs = dofs
        self.n_clamped = n_clamped

    @property
    def m(self):
        return self.values.size


def clamp_pvalues(values):
    """Clamp p-values into the open working interval; returns (array, count)."""
    values = np.asarray(values, dtype=np.float64)
    out = np.clip(values, CLAMP_LO, CLAMP_HI)
    return out, int(np.count_nonzero(out != values))


def power(tau, delta, nu):
    """P(p <= tau) for a truly active voxel: the power of the one-sided test
    of size tau against effect delta on nu dof.

    Broadcasts tau against delta; tau = 0 and 1 map to exactly 0 and 1.
    Scalar tau and delta give a float.
    """
    return _power_tails(tau, delta, nu)[0]


def _power_tails(tau, delta, nu):
    """(power, 1 - power) at tau, broadcast like power.

    They are the upper and lower masses of the non-central t at the size-tau
    critical value, so the smaller of the two keeps its relative accuracy
    however small it is. Sizes 0 and 1 are set exactly, without a tail
    integral.
    """
    taus, deltas = np.broadcast_arrays(np.asarray(tau, dtype=np.float64),
                                       np.asarray(delta, dtype=np.float64))
    if np.isnan(taus).any() or (taus < 0.0).any() or (taus > 1.0).any():
        raise ValueError("tau must lie in [0, 1]")
    pw, q = taus.copy(), np.array(1.0 - taus)
    inner = (taus > 0.0) & (taus < 1.0)
    if inner.any():
        x = special.t_upper_quantile(taus[inner], nu)
        q[inner], pw[inner] = special.nct_tails(x, nu, deltas[inner])
    if pw.ndim == 0:
        return float(pw), float(q)
    return pw, q


@np.errstate(divide="ignore")  # log(0) = -inf for lam at 0 or 1
def _log_mixture(lam, logratio):
    """log(1 - lam + lam * exp(logratio)), elementwise with lam broadcast
    against logratio; finite however large or small the ratio."""
    return np.logaddexp(np.log1p(-lam), np.log(lam) + logratio)


def mixture_logpdf(p, params, nu):
    """log of the mixture density at p in (0, 1).

    Computed as logaddexp(log(1-lam), log(lam) + logratio) so it stays finite
    for every clamped p even when the density ratio is astronomically large
    or small.
    """
    arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    if np.isnan(arr).any() or (arr <= 0.0).any() or (arr >= 1.0).any():
        raise ValueError("p must lie strictly inside (0, 1)")
    x = np.atleast_1d(special.t_upper_quantile(arr, nu))
    out = _log_mixture(params.lam, special.nct_t_logratio(x, nu, params.delta))
    return float(out[0]) if np.ndim(p) == 0 else out


def mixture_pdf(p, params, nu):
    """Mixture density of the observed p-value; bounded below by (1 - lam)."""
    return np.exp(mixture_logpdf(p, params, nu))


def mixture_cdf(p, params, nu):
    """P(P_i <= p) = (1 - lam) * p + lam * power(p); 0 at 0 and 1 at 1."""
    arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    if np.isnan(arr).any() or (arr < 0.0).any() or (arr > 1.0).any():
        raise ValueError("p must lie in [0, 1]")
    pw = np.atleast_1d(power(arr, params.delta, nu))
    out = (1.0 - params.lam) * arr + params.lam * pw
    return float(out[0]) if np.ndim(p) == 0 else out


def voxel_loglik(pvals, params):
    """Log-likelihood of one voxel: sum over replications of the log mixture
    density at (p_j, nu_j) under shared (lam, delta)."""
    if not isinstance(pvals, PValueVector):
        raise TypeError("pvals must be a PValueVector")
    total = 0.0
    for nu in np.unique(pvals.dofs):
        sel = pvals.dofs == nu
        total += float(np.sum(mixture_logpdf(pvals.values[sel], params, float(nu))))
    return total
