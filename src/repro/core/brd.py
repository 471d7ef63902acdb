"""Stage 2: band -> bidiagonal reduction by Householder bulge chasing.

The paper performs this memory-bound stage on the GPU with cache-efficient
tile kernels (Haidar et al.) and a communication-avoiding schedule (Ballard
et al.).  This reproduction runs their algorithm one sweep at a time: the
Householder bulge chase of Haidar, Ltaief & Dongarra (SC'11), the kernel
family of PLASMA's band bidiagonal reduction (Ltaief, Luszczek & Dongarra,
ACM TOMS 39(3), 2013).

**Sweeps.**  Sweep ``i`` removes row ``i``'s entries ``i + 2 .. i + band``
with one right reflector of columns ``i + 1 .. i + band``, which leaves a
bulge below the diagonal.  A left reflector clears the bulge's first
column, filling the rows it mixes past the band; a right reflector clears
the first of those rows, and so on down the band, ``band`` columns a step,
until the bulge leaves the matrix.  Each reflector has length at most
``band`` and updates a block of at most ``band x 2 band`` entries; the
rest of each bulge is cleared by the sweeps that follow, so after the last
sweep the matrix is exactly bidiagonal (annihilated entries are written as
zeros).  Reflectors are formed in float64 by
:func:`~repro.kernels.householder.make_reflector` and applied in the
matrix dtype.

**Tolerance rule.**  Reflectors reassociate the scalar Givens chase's
arithmetic, so the two agree in value, not in bytes: the singular values
of either bidiagonal are within ``2 n eps sigma_max`` of LAPACK's on the
input.  The Givens chase (:func:`band_to_bidiagonal_reference`) is kept
as the oracle of that rule; ``tests/test_brd.py`` pins it.

A ``(B, n, n)`` stack is chased one problem at a time, each on a
contiguous copy of its own live block: the leading rows and columns up to
its last nonzero, so trailing zero rows and columns (tile padding) stay
zero and a problem gets the same bytes in a stack as alone.  With
accumulators, a left reflector also updates the columns ``U[:, r0:r1]``
of its rows as one block and a right one the columns ``V[:, c0:c1]``,
keeping ``U B V^T`` invariant.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..errors import InvalidParamsError, ShapeError
from ..kernels.householder import make_reflector
from ..sim.costmodel import brd_launch_count
from ..sim.graph import LaunchNode
from ..sim.topology import require_int
from ..sim.tracing import Stage

__all__ = ["band_to_bidiagonal", "emit_brd_chase", "givens"]


def emit_brd_chase(
    n: int, band: int, coeffs, deps: Tuple[int, ...] = (), start: int = 0
) -> List[LaunchNode]:
    """Emit the stage-2 bulge-chasing launch nodes for an ``n x n`` band.

    The chase issues :func:`~repro.sim.costmodel.brd_launch_count` fused
    kernel launches (none for ``band <= 1``); the aggregate stage cost
    rides on the first (primary) node and the follow-up launches
    (``primary=False``) charge only their overhead, priced like every
    other node.  ``deps`` anchors the first launch on the
    tail of stage 1, ``start`` is the global index these nodes begin at
    (the chase is a serial chain, so launch ``i`` depends on launch
    ``i - 1``).
    """
    nbrd = brd_launch_count(n, band, coeffs)
    nodes: List[LaunchNode] = []
    for i in range(nbrd):
        nodes.append(
            LaunchNode(
                "brd_chase",
                Stage.BRD,
                ("brd", n, band),
                deps=tuple(deps) if i == 0 else (start + i - 1,),
                primary=(i == 0),
            )
        )
    return nodes


def givens(f: float, g: float) -> Tuple[float, float, float]:
    """LAPACK ``lartg``-style rotation: ``c f + s g = r``, ``-s f + c g = 0``.

    Returns ``(c, s, r)`` with ``c^2 + s^2 = 1``, computed without spurious
    overflow for moderate inputs.
    """
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, 1.0, g
    r = math.hypot(f, g)
    if abs(f) > abs(g):
        # keep the sign convention of f to limit sign churn along the band
        r = math.copysign(r, f)
    return f / r, g / r, r


def _live_order(
    X: np.ndarray, band: int, outside: np.ndarray, problem: Optional[int]
) -> int:
    """One past the last row or column of ``X`` holding a nonzero.

    The same ``X != 0`` mask checks that no nonzero lies where
    ``outside`` (off diagonals ``0..band``) is set: one would be mixed
    into the chase and give wrong values, so it raises
    :class:`~repro.errors.ShapeError`.
    """
    nonzero = X != 0
    stray = nonzero & outside
    if stray.any():
        i, j = np.argwhere(stray)[0]
        where = "" if problem is None else f" in problem {problem}"
        raise ShapeError(
            f"expected an upper band matrix of band {band}: entry ({i}, {j})"
            f"{where} is nonzero; pass stage-1 output through extract_band"
        )
    live = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    return int(live[-1]) + 1 if live.size else 0


def _check_input(A: np.ndarray) -> None:
    """Reject anything but a float square matrix or a stack of them."""
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ShapeError(
            f"expected a square matrix or a stack of them, got shape {A.shape}"
        )
    if A.dtype.kind != "f" or A.dtype.itemsize > 8:
        raise ShapeError(
            f"expected float16, float32 or float64 input, got dtype {A.dtype}"
        )


def _check_band(band) -> None:
    """Accept a non-negative integer bandwidth (NumPy integers included).

    A negative band would return the diagonal alone as if it were the
    bidiagonal, and a float one fails deep inside the chase.
    """
    require_int("band", band)
    if band < 0:
        raise InvalidParamsError(
            f"band must be a non-negative integer, got band={band!r}"
        )


def _check_accumulators(A: np.ndarray, U, V) -> None:
    """Accumulators pair with one matrix: 2-D, ``n`` columns, its dtype."""
    for X in (U, V):
        if X is not None and (A.ndim, X.ndim, X.shape[1:], X.dtype) != (
            2, 2, A.shape[1:], A.dtype
        ):
            raise ShapeError(
                f"accumulator {X.shape}/{X.dtype} does not fit a single "
                f"matrix {A.shape}/{A.dtype}: it needs 2-D, n columns"
            )


def _reflector(x: np.ndarray) -> Optional[Tuple[np.ndarray, float, float]]:
    """``(v, tau, beta)`` with ``(I - tau v v^T) x = beta e_0``, ``v[0] = 1``.

    Formed in float64, whatever ``x``'s dtype, so fp16 norms neither
    underflow nor overflow; ``v`` is then cast to ``x``'s dtype.  With
    ``eps = 0`` the small-reflector clamp of ``make_reflector`` cannot
    fire.  ``None`` when ``x[1:]`` is already zero.
    """
    x64 = x.astype(np.float64)
    alpha = float(x64[0])
    u = x64[1:]
    sigma2 = float(u @ u)
    if sigma2 == 0.0:
        return None
    root, tau, _ = make_reflector(alpha, sigma2, 0.0)
    v = x64 / root
    v[0] = 1.0
    return v.astype(x.dtype, copy=False), tau, alpha - tau * (alpha + sigma2 / root)


def _householder_chase(W: np.ndarray, band: int, U, V) -> None:
    """Chase ``W`` (``m x m``, ``2 <= band < m``) to bidiagonal in place.

    Step ``(r, c0, c1)`` clears row ``r``'s columns ``c0 + 1 .. c1`` with
    a right reflector of columns ``c0 .. c1`` (rows ``r .. c1``), then the
    bulge's column ``c0`` below the diagonal with a left reflector of rows
    ``c0 .. c1`` (columns up to ``c1 + band``).
    """
    m = len(W)
    for i in range(m - 2):
        r, c0, c1 = i, i + 1, min(i + band, m - 1)
        while c0 < c1:
            right = _reflector(W[r, c0 : c1 + 1])
            if right is not None:
                v, tau, beta = right
                tv = tau * v
                X = W[r : c1 + 1, c0 : c1 + 1]
                X -= (X @ v)[:, None] * tv
                W[r, c0] = beta
                W[r, c0 + 1 : c1 + 1] = 0.0
                if V is not None:
                    Y = V[:, c0 : c1 + 1]
                    Y -= (Y @ v)[:, None] * tv
            left = _reflector(W[c0 : c1 + 1, c0])
            if left is not None:
                v, tau, beta = left
                tv = tau * v
                X = W[c0 : c1 + 1, c0 : min(c1 + band, m - 1) + 1]
                X -= tv[:, None] * (v @ X)
                W[c0, c0] = beta
                W[c0 + 1 : c1 + 1, c0] = 0.0
                if U is not None:
                    Y = U[:, c0 : c1 + 1]
                    Y -= (Y @ v)[:, None] * tv
            r, c0, c1 = c0, c0 + band, min(c1 + band, m - 1)


def band_to_bidiagonal(
    A: np.ndarray,
    band: int,
    inplace: bool = False,
    U: Optional[np.ndarray] = None,
    V: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce an upper-band matrix (or a stack of them) to bidiagonal form.

    Parameters
    ----------
    A:
        ``(n, n)`` array, or ``(B, n, n)`` stack, whose nonzeros lie on
        diagonals ``0..band``, in float16, float32 or float64.  A nonzero
        anywhere else raises :class:`~repro.errors.ShapeError` naming the
        entry (and, for a stack, the problem), also where no chase runs
        (``band <= 1`` or ``n <= 2``): pass stage-1 output with resident
        reflector tails through :func:`repro.core.tiling.extract_band`
        first.
    band:
        Upper bandwidth of the input (``TILESIZE`` after stage 1): a
        non-negative integer, else :class:`~repro.errors.InvalidParamsError`.
    inplace:
        Leave the reduced matrix in ``A`` instead of working on a copy.
    U, V:
        Optional ``(k, n)`` accumulators of one matrix, in its dtype and
        updated in place (fastest as transposes of C-ordered arrays).

    Returns
    -------
    (d, e):
        Main diagonal (length ``n``) and superdiagonal (length ``n-1``) of
        the bidiagonal matrix, in ``A``'s dtype; ``(B, n)`` and
        ``(B, n-1)`` for a stack, each problem bitwise equal to chasing it
        alone.
    """
    _check_input(A)
    _check_accumulators(A, U, V)
    _check_band(band)
    n = A.shape[-1]
    stack = A.reshape(-1, n, n)
    d = np.diagonal(stack, axis1=1, axis2=2).copy()
    e = np.diagonal(stack, 1, axis1=1, axis2=2).copy()
    # entries left of the diagonal or right of diagonal `band`
    outside = ~np.tri(n, n, band, dtype=bool) | np.tri(n, n, -1, dtype=bool)
    for p, (X, dp, ep) in enumerate(zip(stack, d, e)):
        m = _live_order(X, band, outside, p if A.ndim == 3 else None)
        if band <= 1 or m <= 2:
            continue  # already bidiagonal
        W = X[:m, :m].copy()
        _householder_chase(W, min(band, m - 1), U, V)
        dp[:m] = np.diagonal(W)
        ep[: m - 1] = np.diagonal(W, 1)
        if inplace:
            X[:m, :m] = W
    if A.ndim == 2:
        return d[0], e[0]
    return d, e


def _rot_cols(A: np.ndarray, j1: int, j2: int, r0: int, r1: int, c: float, s: float) -> None:
    """Apply a right rotation to columns ``j1, j2`` over rows ``r0..r1``."""
    a = A[r0 : r1 + 1, j1].copy()
    b = A[r0 : r1 + 1, j2]
    A[r0 : r1 + 1, j1] = c * a + s * b
    A[r0 : r1 + 1, j2] = -s * a + c * b


def _rot_rows(A: np.ndarray, i1: int, i2: int, c0: int, c1: int, c: float, s: float) -> None:
    """Apply a left rotation to rows ``i1, i2`` over columns ``c0..c1``."""
    a = A[i1, c0 : c1 + 1].copy()
    b = A[i2, c0 : c1 + 1]
    A[i1, c0 : c1 + 1] = c * a + s * b
    A[i2, c0 : c1 + 1] = -s * a + c * b


def band_to_bidiagonal_reference(
    A: np.ndarray,
    band: int,
    inplace: bool = False,
    U: Optional[np.ndarray] = None,
    V: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The scalar Givens chase: one rotation at a time, sweep after sweep.

    The oracle of :func:`band_to_bidiagonal`'s tolerance rule for one
    ``(n, n)`` matrix and its optional accumulators, kept for the tests
    and for ``benchmarks/bench_graph_replay.py``'s oracle timing; nothing
    else calls it.
    """
    _check_input(A)
    if A.ndim != 2:
        raise ShapeError(f"expected a square matrix, got shape {A.shape}")
    _check_accumulators(A, U, V)
    n = A.shape[0]

    def accumulate(X, j, c, s):
        """Rotate columns ``j - 1, j`` of an accumulator, if there is one."""
        if X is not None:
            _rot_cols(X, j - 1, j, 0, X.shape[0] - 1, c, s)
    if band <= 1 or n <= 2:
        d = np.diagonal(A).copy()
        e = np.diagonal(A, 1).copy()
        return d, e

    W = A if inplace else np.array(A, copy=True)

    for i in range(n - 1):
        hi = min(i + band, n - 1)
        # annihilate row i entries (i, hi) .. (i, i+2), innermost last
        for j in range(hi, i + 1, -1):
            f = float(W[i, j - 1])
            g = float(W[i, j])
            if g == 0.0:
                continue
            c, s, _ = givens(f, g)
            # rows that can be nonzero in columns j-1, j: the band plus the
            # current in-flight bulge live in rows i..j
            _rot_cols(W, j - 1, j, i, min(n - 1, j), c, s)
            W[i, j] = 0.0
            accumulate(V, j, c, s)
            # chase the below-diagonal bulge created at (j, j-1)
            p = j
            while p < n:
                f = float(W[p - 1, p - 1])
                g = float(W[p, p - 1])
                if g != 0.0:
                    c, s, _ = givens(f, g)
                    cend = min(n - 1, p + band)
                    _rot_rows(W, p - 1, p, p - 1, cend, c, s)
                    W[p, p - 1] = 0.0
                    accumulate(U, p, c, s)
                # the left rotation filled (p-1, p+band) beyond the band
                q = p + band
                if q > n - 1:
                    break
                f = float(W[p - 1, q - 1])
                g = float(W[p - 1, q])
                if g != 0.0:
                    c, s, _ = givens(f, g)
                    _rot_cols(W, q - 1, q, p - 1, min(n - 1, q), c, s)
                    W[p - 1, q] = 0.0
                    accumulate(V, q, c, s)
                p = q

    d = np.diagonal(W).copy()
    e = np.diagonal(W, 1).copy()
    return d, e
