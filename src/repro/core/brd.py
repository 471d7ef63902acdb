"""Stage 2: band -> bidiagonal reduction by pipelined Givens bulge chasing.

The paper performs this memory-bound stage on the GPU with cache-efficient
tile kernels (Haidar et al.) and a communication-avoiding schedule (Ballard
et al.).  This reproduction runs the classical algorithm as a *wavefront*,
the pipelined bulge chasing of Lang (SIAM J. Sci. Comput. 1993) and
Haidar, Ltaief & Dongarra (SC'11).

**Sweeps.**  For each row ``i`` and each out-of-bidiagonal entry
``(i, j)``, ``j = min(i + band, n - 1) .. i + 2`` (innermost last), one
*sweep* annihilates the entry with a right rotation of columns ``j - 1, j``
(rows ``i..j``) and chases the bulge it creates down the band with
alternating rotations: a left rotation of rows ``p - 1, p`` (columns
``p - 1 .. min(n - 1, p + band)``), then a right rotation of columns
``q - 1, q`` (rows ``p - 1 .. q``) with ``q = p + band``, and so on from
``p = q`` until ``q`` leaves the matrix.  A sweep's *steps* are those
rotations in that order.  A rotation whose target entry ``g`` is already
zero is skipped; a skipped annihilation skips its whole sweep.

**Waves.**  Sweep ``k`` starts two steps after sweep ``k - 1``, four when
``i`` changes, so wave ``w`` holds step ``w - start_k`` of every sweep in
flight.  Steps have the parity of their wave (annihilations and right
chase steps are even, left steps odd), so one wave is all right or all
left rotations.  With these lags the rotations touching any matrix cell
run in strictly increasing wave order, in the order the one-sweep-at-a-
time chase applies them (``tests/test_brd.py`` checks it cell by cell), so
a wave's rotations touch disjoint cells and can be applied as one block.

**Why bitwise.**  Every rotation is still formed by the scalar
:func:`givens` from the same two entries, and every cell receives the same
multiplications and additions in the same order as in the one-at-a-time
chase, with the rotation cast to the matrix dtype exactly as NumPy casts a
Python float operand.  The result - ``d``, ``e`` and, ``inplace``, the
whole reduced matrix - is bitwise identical to the scalar chase, which is
kept as the oracle (:func:`band_to_bidiagonal_reference`).

A wave gathers its rotations' cells from a zero-padded copy of the matrix
(padding columns take the part of a window past the last column, a padding
cell takes the part of a short annihilation window), rotates them as
``(rotations, 2, band + 2)`` blocks and scatters them back.  Waves of at
most :data:`SMALL_WAVE` rotations (small matrices, or skipped sweeps
thinning a wave) apply their rotations one at a time on views.  Trailing
all-zero rows and columns, such as tile padding, are left out of the
schedule: a finite chase maps them to zeros and so skips every rotation
there.  A ``(B, n, n)`` stack advances the bulges of all ``B`` matrices
in each wave.  Orthogonal equivalence preserves the singular values; the
property tests pin this against SciPy on random band matrices.

**Accumulators.**  One matrix's chase can also rotate the columns of ``U``
(left rotations) and ``V`` (right ones), keeping ``U B V^T`` invariant.  A
wave rotates disjoint column pairs, and two rotations sharing a column
share a band cell too, so the waves already keep the scalar order: one
block update per wave is bitwise equal to the scalar chase's.
"""

from __future__ import annotations

import functools
import math
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import InvalidParamsError, ShapeError
from ..sim.costmodel import brd_launch_count
from ..sim.graph import LaunchNode
from ..sim.topology import require_int
from ..sim.tracing import Stage

__all__ = ["band_to_bidiagonal", "emit_brd_chase", "givens"]

#: Waves of at most this many rotations (over the whole stack) skip the
#: gather and apply their rotations one at a time on strided views.
SMALL_WAVE = 2


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


def _live_order(stack: np.ndarray) -> int:
    """One past the last row or column of the stack holding a nonzero."""
    nonzero = (stack != 0).any(axis=0)
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


class Waves(NamedTuple):
    """Wave schedule of an ``n x n`` chase (read-only int32 arrays).

    Slot ``t`` of wave ``w`` (``ptr[w] <= t < ptr[w + 1]``) is a step of
    sweep ``top[w] - (t - ptr[w])``: the sweeps in flight are consecutive
    and listed newest first.  ``start[t]`` is the flat index, in a
    workspace of row width ``nw``, of the rotation's first (``f``) cell;
    ``annlen[w]`` is the row count of the annihilation window when slot
    ``ptr[w]`` is one (the newest sweep starts in ``w``), else 0.  Even
    waves rotate columns, odd waves rows.
    """

    start: np.ndarray
    ptr: np.ndarray
    top: np.ndarray
    annlen: np.ndarray
    #: Number of sweeps and the most steps any sweep takes.
    sweeps: int
    max_steps: int


@functools.lru_cache(maxsize=16)
def wave_schedule(n: int, band: int, nw: int) -> Waves:
    """The memoized wave schedule of an ``n x n`` chase with ``2 <= band < n``,
    its cells numbered in a workspace of row width ``nw``."""
    rows = np.arange(n - 1)
    hi = np.minimum(rows + band, n - 1)
    per_row = np.maximum(hi - rows - 1, 0)
    i = np.repeat(rows, per_row)
    nsweeps = len(i)
    first = np.cumsum(per_row) - per_row
    j = np.repeat(hi, per_row) - (np.arange(nsweeps) - np.repeat(first, per_row))
    lag = np.full(nsweeps, 2)
    lag[0] = 0
    lag[1:][i[1:] != i[:-1]] = 4
    start = np.cumsum(lag)
    nsteps = 2 + 2 * ((n - 1 - j) // band)
    # a sweep's last wave grows with the sweep index, so the sweeps in
    # flight in any wave are the consecutive run lo..top
    end = start + nsteps - 1
    waves = np.arange(end[-1] + 1)
    top = np.searchsorted(start, waves, side="right") - 1
    count = top - np.searchsorted(end, waves) + 1
    ptr = np.zeros(len(waves) + 1, dtype=np.int64)
    np.cumsum(count, out=ptr[1:])
    annlen = np.zeros(len(waves), dtype=np.int32)
    annlen[start] = j - i + 1
    slots = np.empty(ptr[-1], dtype=np.int32)
    for s in range(int(nsteps.max())):
        k = np.flatnonzero(nsteps > s)
        w = start[k] + s
        if s == 0:
            cell = i[k] * nw + j[k] - 1  # annihilation: rows i..j of cols j-1, j
        elif s % 2:
            p = j[k] + (s // 2) * band  # left: rows p-1, p from column p-1
            cell = (p - 1) * (nw + 1)
        else:
            q = j[k] + (s // 2) * band  # right: rows q-band-1..q of cols q-1, q
            cell = (q - band - 1) * nw + q - 1
        slots[ptr[w] + top[w] - k] = cell
    arrays = [slots, ptr.astype(np.int32), top.astype(np.int32), annlen]
    for a in arrays:
        a.flags.writeable = False
    return Waves(*arrays, sweeps=nsweeps, max_steps=int(nsteps.max()))


def _chase(P: np.ndarray, m: int, band: int, acc=(None, None)) -> None:
    """Chase the bulges of the leading ``m x m`` blocks of a padded
    ``(B, n, n + band + 2)`` stack of ``n x n`` band matrices in place.

    Left rotations still span ``band + 2`` columns, so they rotate the
    cells right of the block exactly as a chase of the whole matrix does.
    Even waves rotate row pairs of ``acc[0]`` (``V^T`` or ``None``), odd
    waves of ``acc[1]`` (``U^T``), from the first cell's column on.
    """
    nprob, n, nw = P.shape
    waves = wave_schedule(m, min(band, m - 1), nw)
    width = band + 2
    F = P.reshape(-1)
    dtype = P.dtype
    rotate = givens  # looked up per call, so a wrapped ``givens`` is seen
    span = np.arange(width)
    pair = np.arange(2)  # an accumulator pair's two rows
    # a rotation's a- and b-line cells relative to its first cell
    lines = (
        np.stack([span * nw, span * nw + 1]), np.stack([span, span + nw])
    )
    # (b-line offset, step along a line): right waves pair columns, left rows
    geometry = ((1, nw), (nw, 1))
    offsets = np.arange(nprob) * (n * nw)
    offs = offsets.tolist()
    sink = n  # padding cell (0, n) of problem 0
    # alive[k * B + b]: sweep k of problem b runs (its annihilation was not
    # skipped); dead sweeps are filtered out until the last can be in flight
    alive = bytearray(b"\x01") * (waves.sweeps * nprob)
    dead_until = -1
    max_steps = waves.max_steps
    small = SMALL_WAVE // nprob  # waves of at most this many slots
    slots = waves.start
    slot = memoryview(slots)
    ptr = memoryview(waves.ptr)
    for w, (lo, hi, top, annlen) in enumerate(
        zip(ptr[:-1], ptr[1:], memoryview(waves.top), memoryview(waves.annlen))
    ):
        # one row per (slot, problem), slot-major: rows [0, nann) are this
        # wave's annihilations, whose sweeps cannot be dead yet
        nann = nprob if annlen else 0
        kind = w & 1
        Q = acc[kind]
        dead = w <= dead_until
        if hi - lo <= small:
            st = slot[lo:hi] if nprob == 1 else [
                s0 + o for s0 in slot[lo:hi] for o in offs
            ]
        else:
            if dead:
                st = [
                    s0 + o
                    for t, s0 in enumerate(slot[lo:hi])
                    for b, o in enumerate(offs)
                    if alive[(top - t) * nprob + b]
                ]
                if len(st) > SMALL_WAVE:
                    st = np.array(st)
                dead = False
            elif nprob == 1:
                st = slots[lo:hi]
            else:
                st = (slots[lo:hi, None] + offsets).reshape(-1)
            if len(st) > SMALL_WAVE:
                idx = st[:, None, None] + lines[kind]
                if nann:
                    idx[:nann, :, annlen:] = sink
                X = F[idx]
                g = X[:, 1, 0]
                gs = g.tolist()
                if 0.0 in gs:
                    for r in range(nann):
                        if gs[r] == 0.0:
                            alive[top * nprob + r] = 0
                            dead_until = w + max_steps
                    keep = g != 0.0
                    X, idx = X[keep], idx[keep]
                rot = []
                for f, gk in X[:, :, 0].tolist():
                    c, s, _ = rotate(f, gk)
                    rot += (c, -s, s, c)
                if rot:
                    R = np.array(rot, dtype=dtype).reshape(-1, 2, 2, 1)
                    # [c a + s b, -s a + c b]: the scalar chase's arithmetic
                    Y = R[:, 0] * X[:, :1] + R[:, 1] * X[:, 1:]
                    Y[:, 1, 0] = 0.0
                    F[idx] = Y
                    if Q is not None:
                        pairs = idx[:, :1, 0] % nw + pair
                        Z = Q[pairs]
                        Q[pairs] = R[:, 0] * Z[:, :1] + R[:, 1] * Z[:, 1:]
                continue
        off, step = geometry[kind]
        for r, s0 in enumerate(st):
            if dead and not alive[(top - r // nprob) * nprob + r % nprob]:
                continue
            g = F.item(s0 + off)
            if g == 0.0:
                if r < nann:
                    alive[top * nprob + r] = 0
                    dead_until = w + max_steps
                continue
            c, s, _ = rotate(F.item(s0), g)
            stop = s0 + (annlen if r < nann else width) * step
            a = F[s0:stop:step].copy()
            b = F[s0 + off : stop + off : step]
            F[s0:stop:step] = c * a + s * b
            F[s0 + off : stop + off : step] = -s * a + c * b
            F[s0 + off] = 0.0
            if Q is not None:
                k = s0 % nw
                _rot_rows(Q, k, k + 1, 0, Q.shape[1] - 1, c, s)


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
        diagonals ``0..band``, in float16, float32 or float64.  Below-band
        content is ignored (treated as zero), so stage-1 output with
        resident reflector tails can be passed through
        :func:`repro.core.tiling.extract_band` first.
    band:
        Upper bandwidth of the input (``TILESIZE`` after stage 1): a
        non-negative integer, else :class:`~repro.errors.InvalidParamsError`.
    inplace:
        Leave the reduced matrix in ``A`` instead of working on a copy.
    U, V:
        Optional ``(k, n)`` accumulators of one matrix, in its dtype and
        rotated in place (fastest as transposes of C-ordered arrays).

    Returns
    -------
    (d, e):
        Main diagonal (length ``n``) and superdiagonal (length ``n-1``) of
        the bidiagonal matrix, in ``A``'s dtype; ``(B, n)`` and
        ``(B, n-1)`` for a stack.  Bitwise equal to chasing each matrix
        alone with :func:`band_to_bidiagonal_reference`, accumulators
        included.
    """
    _check_input(A)
    _check_accumulators(A, U, V)
    _check_band(band)
    n = A.shape[-1]
    if band <= 1 or n <= 2:
        d = np.diagonal(A, axis1=-2, axis2=-1).copy()
        e = np.diagonal(A, 1, axis1=-2, axis2=-1).copy()
        return d, e

    band = min(band, n - 1)  # a wider band chases exactly like n - 1
    stack = A.reshape(-1, n, n)
    P = np.zeros((len(stack), n, n + band + 2), dtype=A.dtype)
    P[:, :, :n] = stack
    # Rows and columns past the last nonzero entry (tile padding) hold
    # zeros that every rotation of the whole chase maps to zeros, so their
    # rotations are all skipped: chase only the leading block.  Only a
    # non-finite value could spread into them, and once one appears it
    # survives to the end, so a non-finite result reruns the whole chase,
    # accumulators included.
    m = _live_order(stack)
    acc = (None if V is None else V.T, None if U is None else U.T)
    if m > 2:
        entry = [(Q, Q.copy()) for Q in acc if Q is not None and m < n]
        _chase(P, m, band, acc)
        if m < n and not np.isfinite(P).all():
            P[:, :, :n] = stack
            for Q, Q0 in entry:
                Q[...] = Q0
            _chase(P, n, band, acc)
    W = P[:, :, :n]
    if inplace:
        A[...] = W.reshape(A.shape)
    d = np.diagonal(W, axis1=1, axis2=2).copy()
    e = np.diagonal(W, 1, axis1=1, axis2=2).copy()
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
    """The scalar chase: one rotation at a time, sweep after sweep.

    The bitwise oracle of :func:`band_to_bidiagonal` for one ``(n, n)``
    matrix and its optional accumulators, kept for the tests and for
    ``benchmarks/bench_graph_replay.py``'s oracle timing; nothing else
    calls it.
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
