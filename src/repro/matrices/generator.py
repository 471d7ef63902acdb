"""Test-matrix generator: ``A = U' diag(sigma) V`` with Haar-random factors.

Reproduces the paper's accuracy-study construction (after RandomMatrices.jl):
matrices with *known* singular values and random unitary factors, generated
per precision and seeded for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import InvalidParamsError
from ..precision import Precision, PrecisionLike, resolve_precision
from ..sim.topology import require_int
from .distributions import get_distribution

__all__ = ["gaussian_sketch", "haar_orthogonal", "make_test_matrix", "TestMatrix"]


def haar_orthogonal(
    n: int, rng: np.random.Generator, dtype=np.float64
) -> np.ndarray:
    """Haar-distributed random orthogonal matrix.

    QR of a standard Gaussian matrix with the R-diagonal sign correction
    (Mezzadri 2007) - without the correction the distribution is not Haar.
    """
    Z = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    signs = np.sign(np.diagonal(R))
    signs[signs == 0.0] = 1.0
    return (Q * signs).astype(dtype)


def gaussian_sketch(
    n: int,
    l: int,
    seed: int = 0,
    precision: PrecisionLike = Precision.FP64,
) -> np.ndarray:
    """Seeded Gaussian sketch matrix ``Omega (n x l)`` for randomized SVD.

    The random stream is keyed by ``(seed, n, l)`` through one
    ``SeedSequence``, so the sketch is bitwise reproducible per
    ``(seed, shape, precision)`` — two solves with the same seed draw the
    same Omega regardless of what else the process sampled before, and
    *different* shapes under one seed draw independent streams instead of
    a shared-prefix one.  Entries are standard normal, drawn in float64
    and rounded once to the storage precision.  ``seed`` must be a
    non-negative Python or NumPy integer (not ``bool``); anything else
    raises :class:`~repro.errors.InvalidParamsError` naming it.
    """
    require_int("seed", seed)
    if seed < 0:
        raise InvalidParamsError(
            f"seed must be a non-negative integer, got seed={seed}"
        )
    if n < 1 or l < 1:
        raise ValueError(f"sketch shape must be positive, got ({n}, {l})")
    prec = resolve_precision(precision)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(int(n), int(l)))
    )
    return rng.standard_normal((n, l)).astype(prec.dtype)


@dataclass(frozen=True)
class TestMatrix:
    """A generated test matrix together with its exact singular values."""

    A: np.ndarray
    sigma: np.ndarray  # exact singular values (descending, float64)
    distribution: str
    seed: int


def make_test_matrix(
    n: int,
    distribution: str = "logarithmic",
    precision: PrecisionLike = Precision.FP64,
    seed: int = 0,
    sigma: Optional[np.ndarray] = None,
) -> TestMatrix:
    """Construct ``A = U diag(sigma) V^T`` with known singular values.

    Parameters
    ----------
    n:
        Matrix order.
    distribution:
        One of ``"arithmetic"``, ``"logarithmic"``, ``"quarter-circle"``
        (ignored when ``sigma`` is given).
    precision:
        Storage precision of the returned matrix.  Note that rounding the
        product to low precision perturbs the exact singular values by
        ``O(eps)`` - the same caveat applies to the paper's FP16 column.
    seed:
        Seed for the Haar factors.
    sigma:
        Explicit singular values (descending) overriding ``distribution``.
    """
    prec = resolve_precision(precision)
    rng = np.random.default_rng(seed)
    custom_sigma = sigma is not None
    if sigma is None:
        sigma = get_distribution(distribution)(n)
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (n,):
        raise ValueError(f"sigma must have shape ({n},), got {sigma.shape}")
    U = haar_orthogonal(n, rng)
    V = haar_orthogonal(n, rng)
    A = (U * sigma) @ V.T  # U @ diag(sigma) @ V^T without forming diag
    return TestMatrix(
        A=A.astype(prec.dtype),
        sigma=np.sort(sigma)[::-1].copy(),
        distribution="custom" if custom_sigma else distribution,
        seed=seed,
    )
