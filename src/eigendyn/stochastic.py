"""Stochastic perturbation steps and expected conjugate forces.

The matrix walks as M(t_i + dt) = M(t_i) + dt * P(t_i) with P drawn from
independent centered normals.  For a real matrix with a complex
eigenvalue lambda_j, the expected pairwise force from its conjugate is

    E[F] = -i sum_{m,l} E[p_ml^2] |u_j^m|^2 |v_j^l|^2 / (2 Im lambda_j),

which for a full i.i.d. perturbation (all variances sigma^2, unit-norm
v_j) collapses to -i sigma^2 ||u_j||_2^2 / (2 Im lambda_j).  For a
diagonal perturbation only the (m, m) variances are present and the sum
runs over the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConjugatePairing, SpectralDecomposition, as_square_matrix
from .dynamics import pairwise_conjugate_summand
from . import core
from .errors import DimensionMismatch, EmptyEstimate, RealEigenvalue

__all__ = [
    "PerturbationProcess",
    "MonteCarloEstimate",
    "expected_conjugate_force_iid",
    "expected_conjugate_force_general",
    "monte_carlo_conjugate_force",
]


@dataclass(frozen=True)
class PerturbationProcess:
    """Seeded Gaussian perturbation source.

    kind      "diagonal" (off-diagonals zero) or "full"
    sigma2    common entry variance for the i.i.d. case
    variances optional (n, n) matrix of per-entry variances E[p_ml^2];
              overrides sigma2 when given
    seed      64-bit master seed; sample i is a pure function of
              (seed, i) and replays byte-identically
    dt        step size of the walk
    """

    kind: str = "diagonal"
    sigma2: float = 1.0
    variances: Optional[np.ndarray] = None
    seed: int = 0
    dt: float = 1e-2

    def __post_init__(self):
        if self.kind not in ("diagonal", "full"):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        if self.variances is not None and np.any(
                np.asarray(self.variances, dtype=float) < 0):
            raise ValueError("all entry variances must be >= 0")

    def _rng(self, index: int) -> np.random.Generator:
        # independent substream per sample index: worker count cannot
        # change the draw
        return np.random.default_rng(
            np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(index),))
        )

    def sample(self, n: int, index: int) -> np.ndarray:
        """Draw the perturbation matrix P for sample ``index``."""
        rng = self._rng(index)
        if self.variances is not None:
            v = np.asarray(self.variances, dtype=float)
            if v.shape != (n, n):
                raise DimensionMismatch(f"variance matrix shape {v.shape} "
                                        f"!= {(n, n)}")
            scale = np.sqrt(v)
        else:
            scale = np.sqrt(self.sigma2)
        if self.kind == "diagonal":
            p = np.zeros((n, n))
            diag_scale = np.diag(scale) if np.ndim(scale) == 2 else scale
            np.fill_diagonal(p, rng.standard_normal(n) * diag_scale)
            return p
        return rng.standard_normal((n, n)) * scale


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample mean with componentwise standard error (Re and Im)."""

    mean: complex
    standard_error_re: float
    standard_error_im: float
    samples: int

    @property
    def standard_error(self) -> float:
        return max(self.standard_error_re, self.standard_error_im)


def _check_complex(d: SpectralDecomposition, j: int) -> complex:
    lam = d.eigenvalues[j]
    if lam.imag == 0.0:
        raise RealEigenvalue(f"lambda_{j} = {lam} is real: expected force singular")
    return lam


def expected_conjugate_force_general(
    d: SpectralDecomposition,
    pairing: ConjugatePairing,
    variances,
    j: int,
) -> complex:
    """Closed-form E[F(conj(lambda_j) -> lambda_j)] for independent
    centered entries with per-entry variances E[p_ml^2]."""
    lam = _check_complex(d, j)
    v = np.asarray(variances, dtype=float)
    if v.shape != (d.n, d.n):
        raise DimensionMismatch(f"variance matrix shape {v.shape} != {(d.n, d.n)}")
    u2 = np.abs(d.left[:, j]) ** 2
    v2 = np.abs(d.right[:, j]) ** 2
    total = u2 @ v @ v2
    return complex(-1j * total / (2.0 * lam.imag))


def expected_conjugate_force_iid(
    d: SpectralDecomposition,
    pairing: ConjugatePairing,
    sigma2: float,
    j: int,
    kind: str = "full",
) -> complex:
    """Closed-form expected conjugate force for i.i.d. N(0, sigma2) entries.

    kind="full": every entry perturbed; with unit-norm v_j this is the
    -i sigma^2 ||u_j||^2 / (2 Im lambda_j) form.  kind="diagonal": only
    diagonal entries perturbed, the sum restricted accordingly.
    """
    lam = _check_complex(d, j)
    u2 = np.abs(d.left[:, j]) ** 2
    v2 = np.abs(d.right[:, j]) ** 2
    if kind == "full":
        total = sigma2 * u2.sum() * v2.sum()
    elif kind == "diagonal":
        total = sigma2 * float(u2 @ v2)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return complex(-1j * total / (2.0 * lam.imag))


def monte_carlo_conjugate_force(
    m,
    proc: PerturbationProcess,
    j: int,
    samples: int,
    tol: float = 1e-9,
) -> MonteCarloEstimate:
    """Monte Carlo mean of the pairwise conjugate summand with Mdot = P.

    The integrand is the undoubled pairwise force (half the conjugate
    term of the acceleration), matching the closed-form expectations.
    Deterministic given (proc.seed, samples); the reduction runs in
    sample-index order.
    """
    if samples <= 0:
        raise EmptyEstimate("samples must be positive")
    m = as_square_matrix(m)
    d = core.decompose(m, tol)
    pairing = core.pair_conjugates(d, tol)
    # d and j are fixed: a real or self-paired j is singular on every sample
    if pairing.partner[j] == j:
        raise RealEigenvalue(f"lambda_{j} = {d.eigenvalues[j]} is self-paired "
                             f"(|Im| <= {tol}): expected force singular")

    vals = np.empty(samples, dtype=complex)
    for i in range(samples):
        vals[i] = pairwise_conjugate_summand(d, pairing, proc.sample(d.n, i), j)
    mean = complex(vals.mean())
    if samples > 1:
        se_re = float(vals.real.std(ddof=1) / np.sqrt(samples))
        se_im = float(vals.imag.std(ddof=1) / np.sqrt(samples))
    else:
        se_re = se_im = 0.0
    return MonteCarloEstimate(mean, se_re, se_im, samples=samples)
