"""Stage 3: singular values of a real upper-bidiagonal matrix.

The paper hands this final, cheapest stage to a high-quality CPU library
(LAPACK divide & conquer).  This reproduction implements it from scratch
and keeps SciPy only as an optional oracle:

* :func:`svdvals_bidiag` - stage 3 of every values door at every order:
  the non-finite check, then :func:`bisect`;
* :func:`bisect` - the lock-step Sturm multisection kernel.  Every
  singular value of every stacked problem is one *lane*; a pass cuts
  every live bracket into ``k`` with one count of ``k - 1`` shifts, the
  differential stationary qd transform (Dhillon & Parlett, *Linear
  Algebra Appl.* 387, 2004) on ``q_i = d_i^2`` and ``e_i^2``:
  ``D_i = s_i + q_i``, ``s_{i+1} = s_i (e_i^2 / D_i) - tau`` from
  ``s_0 = -tau``, whose negative ``D_i`` number the singular values below
  ``sqrt(tau)``.  A lane freezes once its bracket converges, so a stack
  gives each problem exactly what it gets alone;
* :func:`golub_kahan` - implicit-shift QR iteration in the style of LAPACK
  ``bdsqr`` (zero-shift sweeps, 2x2 closed forms, splitting, deflation);
  no door calls it: it is a test oracle and a benchmark reference.

The loop (:func:`_bisect_lanes`) and the count (:func:`_negcounter`)
exist once: :func:`repro.core.eigh.eigh_tridiagonal` runs the same loop
with the classical ``LDL^T`` Sturm count.  All solvers return singular
values sorted in descending order as float64.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConvergenceError, ShapeError

__all__ = ["golub_kahan", "bisect", "svdvals_bidiag", "singular_2x2"]

_EPS = float(np.finfo(np.float64).eps)


def _rotg(f: float, g: float):
    """Givens rotation ``(c, s, r)`` with ``c f + s g = r``."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, 1.0, g
    r = math.hypot(f, g)
    return f / r, g / r, r


def singular_2x2(f: float, g: float, h: float):
    """Singular values of ``[[f, g], [0, h]]`` (LAPACK ``las2``).

    Returns ``(ssmin, ssmax)`` computed without squaring-induced overflow
    or underflow for moderate inputs.
    """
    fa, ga, ha = abs(f), abs(g), abs(h)
    fhmn, fhmx = min(fa, ha), max(fa, ha)
    if fhmn == 0.0:
        if fhmx == 0.0:
            return 0.0, ga
        big = max(fhmx, ga)
        small = min(fhmx, ga)
        return 0.0, big * math.sqrt(1.0 + (small / big) ** 2)
    if ga < fhmx:
        as_ = 1.0 + fhmn / fhmx
        at = (fhmx - fhmn) / fhmx
        au = (ga / fhmx) ** 2
        c = 2.0 / (math.sqrt(as_ * as_ + au) + math.sqrt(at * at + au))
        ssmin = fhmn * c
        ssmax = fhmx / c
    else:
        au = fhmx / ga
        if au == 0.0:
            ssmin = (fhmn * fhmx) / ga
            ssmax = ga
        else:
            as_ = 1.0 + fhmn / fhmx
            at = (fhmx - fhmn) / fhmx
            c = 1.0 / (
                math.sqrt(1.0 + (as_ * au) ** 2) + math.sqrt(1.0 + (at * au) ** 2)
            )
            ssmin = 2.0 * (fhmn * c) * au
            ssmax = ga / (2.0 * c)
    return ssmin, ssmax


# --------------------------------------------------------------------- #
# Golub-Kahan QR iteration
# --------------------------------------------------------------------- #
def _shifted_sweep(d, e, lo: int, hi: int, shift: float) -> None:
    """One forward implicit-shift QR sweep on block ``[lo, hi]``."""
    f = (abs(d[lo]) - shift) * (math.copysign(1.0, d[lo]) + shift / d[lo])
    g = e[lo]
    for k in range(lo, hi):
        c, s, r = _rotg(f, g)
        if k > lo:
            e[k - 1] = r
        f = c * d[k] + s * e[k]
        e[k] = c * e[k] - s * d[k]
        g = s * d[k + 1]
        d[k + 1] = c * d[k + 1]
        c, s, r = _rotg(f, g)
        d[k] = r
        f = c * e[k] + s * d[k + 1]
        d[k + 1] = c * d[k + 1] - s * e[k]
        if k < hi - 1:
            g = s * e[k + 1]
            e[k + 1] = c * e[k + 1]
    e[hi - 1] = f


def _zero_shift_sweep(d, e, lo: int, hi: int) -> None:
    """One forward Demmel-Kahan zero-shift sweep on block ``[lo, hi]``."""
    cs, oldcs, oldsn = 1.0, 1.0, 0.0
    for k in range(lo, hi):
        c, sn, r = _rotg(d[k] * cs, e[k])
        cs = c
        if k > lo:
            e[k - 1] = oldsn * r
        oldcs, oldsn, d[k] = _rotg(oldcs * r, d[k + 1] * sn)
    h = d[hi] * cs
    d[hi] = h * oldcs
    e[hi - 1] = h * oldsn


def _kill_row(d, e, k: int, hi: int) -> None:
    """Zero out row ``k`` when ``d[k] == 0`` (chase ``e[k]`` rightward)."""
    f = e[k]
    e[k] = 0.0
    for j in range(k + 1, hi + 1):
        c, s, r = _rotg(d[j], f)
        d[j] = r
        if j < hi:
            f = -s * e[j]
            e[j] = c * e[j]


def _kill_col(d, e, k: int, lo: int) -> None:
    """Zero out column ``k`` when ``d[k] == 0`` (chase ``e[k-1]`` upward)."""
    g = e[k - 1]
    e[k - 1] = 0.0
    for j in range(k - 1, lo - 1, -1):
        c, s, r = _rotg(d[j], g)
        d[j] = r
        if j > lo:
            g = -s * e[j - 1]
            e[j - 1] = c * e[j - 1]


def golub_kahan(
    d: np.ndarray,
    e: np.ndarray,
    maxiter_factor: int = 30,
) -> np.ndarray:
    """Singular values of ``bidiag(d, e)`` by implicit-shift QR iteration.

    Parameters
    ----------
    d, e:
        Main diagonal (``n``) and superdiagonal (``n-1``); not modified.
    maxiter_factor:
        Iteration budget is ``maxiter_factor * n^2`` sweeps before
        :class:`~repro.errors.ConvergenceError` is raised.

    Returns
    -------
    Singular values in descending order (float64).
    """
    d = np.asarray(d, dtype=np.float64).copy()
    e = np.asarray(e, dtype=np.float64).copy()
    n = d.shape[0]
    if e.shape[0] != max(0, n - 1):
        raise ValueError(f"superdiagonal length {e.shape[0]} != n-1 = {n - 1}")
    if n == 0:
        return np.zeros(0)
    if n == 1:
        return np.abs(d)

    sigma_max = max(np.abs(d).max(), np.abs(e).max() if n > 1 else 0.0)
    if sigma_max == 0.0:
        return np.zeros(n)
    tol = 20.0 * _EPS
    floor = _EPS * sigma_max

    def offdiag_small(i: int) -> bool:
        return abs(e[i]) <= tol * (abs(d[i]) + abs(d[i + 1])) or abs(e[i]) <= floor

    maxit = maxiter_factor * n * n
    iters = 0
    hi = n - 1
    while hi > 0:
        iters += 1
        if iters > maxit:
            raise ConvergenceError(
                f"bidiagonal QR iteration failed to converge after {maxit} sweeps"
            )
        if offdiag_small(hi - 1):
            e[hi - 1] = 0.0
            hi -= 1
            continue
        lo = hi - 1
        while lo > 0 and not offdiag_small(lo - 1):
            lo -= 1

        # zero / negligible diagonal entries split the block
        block_max = max(np.abs(d[lo : hi + 1]).max(), np.abs(e[lo:hi]).max())
        dk_small = np.abs(d[lo : hi + 1]) <= tol * block_max
        if dk_small.any():
            k = lo + int(np.argmax(dk_small))
            d[k] = 0.0
            if k < hi:
                _kill_row(d, e, k, hi)
            if k > lo:
                _kill_col(d, e, k, lo)
            continue

        if hi == lo + 1:  # 2x2 block: closed form
            ssmin, ssmax = singular_2x2(d[lo], e[lo], d[hi])
            d[lo], d[hi] = ssmax, ssmin
            e[lo] = 0.0
            hi = lo
            continue

        ssmin, _ = singular_2x2(d[hi - 1], e[hi - 1], d[hi])
        sll = abs(d[lo])
        if sll > 0.0 and (ssmin / sll) ** 2 <= _EPS:
            _zero_shift_sweep(d, e, lo, hi)
        else:
            _shifted_sweep(d, e, lo, hi, ssmin)

    out = np.abs(d)
    out.sort()
    return out[::-1].copy()


# --------------------------------------------------------------------- #
# lock-step Sturm bisection
# --------------------------------------------------------------------- #
#: Pivots smaller than this in magnitude are taken as ``-_PIVMIN`` when a
#: count is redone after a zero pivot (as LAPACK ``dlaneg`` redoes it).  Counts run on
#: data scaled below 1 in magnitude, so ``1 / _PIVMIN`` cannot overflow.
_PIVMIN = float(np.finfo(np.float64).tiny) / _EPS

#: Bisection passes a lane may take before it stops where it is.
_MAXITER = 90

#: Pivots one pass may hold: lanes are cut in chunks of at most
#: ``_PIVOT_BUDGET // (steps * (k - 1))``, so a chunk's ``k - 1`` lane
#: copies hold 8 MiB of float64 pivots at most.
_PIVOT_BUDGET = 1 << 20


def _negcounter(Q: np.ndarray, W: np.ndarray, qd: bool):
    """The Sturm count over a set of lanes: ``count(tau)``, negative pivots.

    Column ``j`` of ``Q`` (``m`` rows) and ``W`` (``m - 1`` rows) is lane
    ``j``'s matrix; ``count(tau)`` factors every lane's matrix shifted by
    ``tau[j]`` as ``L D L^T`` and counts the negative ``D_i``.  Every lane
    runs ``D_i = s_i + Q_i`` from ``s_0 = -tau``:

    * ``qd`` - the differential stationary qd transform (Dhillon & Parlett,
      2004) of ``B^T B = L D L^T`` with ``Q = d^2``, ``W = e^2``:
      ``s_{i+1} = s_i (W_i / D_i) - tau``;
    * otherwise the classical Sturm count of a symmetric tridiagonal ``T``
      with ``Q = alpha``, ``W = -beta^2``: ``s_{i+1} = W_i / D_i - tau``.

    Each step is four in-place ufunc calls over all lanes at once (three
    without ``qd``) on row views made once, here, for every pass.  A lane
    whose last pivot is not finite met a zero pivot (or an overflowing
    one) and is counted again with ``|D_i| < _PIVMIN`` replaced by
    ``-_PIVMIN`` (LAPACK ``dlaneg``); every other lane's count is the
    plain IEEE recurrence, so no lane depends on another.
    """
    m = Q.shape[0]
    D = np.empty(Q.shape)
    rows = list(zip(D, Q, W))  # steps 0 .. m - 2

    def pivots(views, qlast, last, tau, guard):
        s = np.negative(tau)
        t = np.empty_like(tau)
        for Di, Qi, Wi in views:
            np.add(s, Qi, out=Di)
            if guard:
                Di[np.abs(Di) < _PIVMIN] = -_PIVMIN
            np.divide(Wi, Di, out=t)
            if qd:
                np.multiply(s, t, out=t)
            np.subtract(t, tau, out=s)
        np.add(s, qlast, out=last)

    def negatives(P):
        # summed as bytes: several times faster than count_nonzero(axis=0)
        return np.add.reduce(np.signbit(P).view(np.uint8), axis=0,
                             dtype=np.int32)

    def count(tau: np.ndarray) -> np.ndarray:
        # zero pivots are expected here: their lanes are counted again
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            pivots(rows, Q[m - 1], D[m - 1], tau, guard=False)
        negative = negatives(D)
        bad = np.flatnonzero(~np.isfinite(D[m - 1]))
        if bad.size:
            Db = np.empty((m, bad.size))
            pivots(
                list(zip(Db, Q[:, bad], W[:, bad])), Q[m - 1, bad], Db[m - 1],
                tau[bad], guard=True,
            )
            negative[bad] = negatives(Db)
        return negative

    return count


def _sections(n: int) -> int:
    """The ``k`` of a length-``n`` problem: from ``n`` alone, never the batch.

    Measured on the stage-3 bidiagonals of the three ``make_test_matrix``
    spectra at fp16/fp32/fp64 (2-core x86-64 host, NumPy 2.4, one BLAS
    thread, best of 7, interleaved), kernel over Golub-Kahan time with this
    ``k`` (with ``k = 2``): 0.64-0.66x (1.7-1.8x) at order 32, 0.36-0.39x
    (0.80-0.87x) at 64, 0.30-0.38x (0.51-0.55x) at 96 and 0.26-0.31x
    (0.39-0.40x) at 128; each is the fastest ``k`` of 2-32 or within 10%.
    At 256, ``k = 4`` saves under 10%; ``k = 2`` keeps bisection's bytes.
    Golub-Kahan stays ahead only at a tiny true order in a padded tile:
    about 0.1 ms per problem at 16 in 32, 0.5 ms at 8 in 32.
    """
    return 16 if n <= 32 else 8 if n <= 64 else 4 if n <= 128 else 2


def _bisect_lanes(
    q: np.ndarray,
    w: np.ndarray,
    prob: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    rank: np.ndarray,
    atol: float,
    rel_tol: float,
    maxiter: int,
    qd: bool,
    k: int,
) -> np.ndarray:
    """Lock-step multisection: the one Sturm bisection loop of the package.

    Lane ``j`` brackets the value ``x`` in ``[lo[j], hi[j]]`` above which
    problem ``prob[j]`` (column of ``q``/``w``, see :func:`_negcounter`)
    has more than ``rank[j]`` pivots negative; the shift is ``x^2`` for
    the ``qd`` count (``x`` is a singular value) and ``x`` otherwise.
    Each pass cuts every live bracket into ``k`` (a power of two) with one
    count of the ``k - 1`` shifts ``((k - i) lo + i hi) / k`` of every
    live lane (H. D. Simon, SIAM J. Sci. Stat. Comput. 10(1), 1989), and
    keeps the piece below the first shift the value lies under; ``k = 2``
    is bisection, midpoint for midpoint.  A lane freezes once
    ``hi - lo <= max(rel_tol * max(|lo|, |hi|), atol)``, or after
    ``maxiter`` passes, and once half the counted lanes are frozen the
    count is rebuilt on the live ones.  A lane's result never depends on
    which other lanes share the pass, so a stack of problems gives each
    problem exactly what it gets alone.  Returns the bracket midpoints.
    """
    i = np.arange(k + 1)[:, None]
    chunk = max(1, _PIVOT_BUDGET // (q.shape[0] * (k - 1)))
    for c in range(0, prob.size, chunk):
        held = np.arange(c, min(c + chunk, prob.size))  # lanes counted
        count = None
        for _ in range(maxiter):
            l, h = lo[held], hi[held]
            width = np.maximum(np.abs(l), np.abs(h))
            live = h - l > np.maximum(rel_tol * width, atol)
            nlive = np.count_nonzero(live)
            if not nlive:
                break
            if count is None or 2 * nlive <= held.size:
                # count the live lanes alone, one copy per shift; take()
                # keeps each step's row contiguous
                held, l, h, live = held[live], l[live], h[live], live[live]
                cols = np.tile(prob[held], k - 1)
                count = _negcounter(
                    q.take(cols, axis=1), w.take(cols, axis=1), qd
                )
            grid = ((k - i) * l + i * h) / k
            grid[0], grid[k] = l, h
            x = grid[1:k]
            below = np.ones((k, held.size), dtype=bool)  # x_k = hi
            counts = count((x * x if qd else x).ravel()).reshape(x.shape)
            np.greater(counts, rank[held], out=below[:-1])
            first = np.argmax(below, axis=0)
            lanes = np.arange(held.size)
            lo[held] = np.where(live, grid[first, lanes], l)
            hi[held] = np.where(live, grid[first + 1, lanes], h)
    return 0.5 * (lo + hi)


def bisect(
    d: np.ndarray,
    e: np.ndarray,
    maxiter: int = _MAXITER,
    rel_tol: float = 4.0 * _EPS,
) -> np.ndarray:
    """Singular values of ``bidiag(d, e)`` by lock-step Sturm multisection.

    ``d`` is ``(n,)`` or a ``(B, n)`` stack, ``e`` ``(n - 1,)`` or
    ``(B, n - 1)``; the result has ``d``'s shape, each row descending.
    Every singular value of every problem is one lane of
    :func:`_bisect_lanes`, cut ``k = _sections(n)`` ways a pass (bisection
    above ``n = 128``) and counted by the qd recurrence of
    :func:`_negcounter` on ``q = d^2``, ``e^2`` after an exact power-of-two
    scale that puts each problem's largest entry in ``[1/2, 1)`` (so
    ``sigma < 2``, the starting bracket).  Trailing all-zero rows (tile
    padding: ``d_i = 0`` and ``e_{i-1} = 0``) are set aside as exact
    zeros; the count runs over each problem's leading part, aligned to
    end on the last step (zero rows ahead of it add exactly one negative
    pivot each).  A lane stops once its bracket is within ``rel_tol`` of
    its upper end or within ``2 rel_tol eps`` (of the scaled bound 2), or
    after ``maxiter`` passes: ``O(eps * sigma_max)`` absolute accuracy or
    better.  Bitwise, a stack gives each problem what it gets alone.
    """
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    n = d.shape[-1]
    if e.shape[-1] != max(0, n - 1) or e.shape[:-1] != d.shape[:-1]:
        raise ValueError(f"superdiagonal length {e.shape[-1]} != n-1 = {n - 1}")
    if n == 0:
        return np.zeros(d.shape)
    d2 = d.reshape(-1, n)
    e2 = e.reshape(d2.shape[0], n - 1)
    nprob = d2.shape[0]
    amax = np.maximum(np.abs(d2).max(axis=1), np.abs(e2).max(axis=1, initial=0.0))
    _, k = np.frexp(amax)
    ds = np.ldexp(d2, -k[:, None])
    es = np.ldexp(e2, -k[:, None])
    nonzero = ds != 0.0
    nonzero[:, 1:] |= es != 0.0
    order = np.where(
        nonzero.any(axis=1), n - np.argmax(nonzero[:, ::-1], axis=1), 0
    )
    steps = int(order.max())
    out = np.zeros((nprob, n))
    if steps:
        q = np.zeros((steps, nprob))
        w = np.zeros((steps - 1, nprob))
        for p, m in enumerate(order):
            q[steps - m :, p] = ds[p, :m] ** 2
            w[steps - m :, p] = es[p, : max(0, m - 1)] ** 2
        prob = np.repeat(np.arange(nprob), order)
        rank = np.concatenate([np.arange(steps - m, steps) for m in order])
        vals = _bisect_lanes(
            q, w, prob, np.zeros(prob.size), np.full(prob.size, 2.0), rank,
            rel_tol * _EPS * 2.0, rel_tol, maxiter, qd=True, k=_sections(n),
        )
        out[np.arange(n) >= n - order[:, None]] = vals
        out = np.ldexp(out, k[:, None])
    out.sort(axis=1)
    return out[:, ::-1].reshape(d.shape).copy()


def _require_finite(d: np.ndarray, e: np.ndarray) -> None:
    """Reject a non-finite bidiagonal before a stage-3 solve sees it."""
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ShapeError(
            "bidiagonal contains NaN or Inf entries: the input was not finite "
            "or the reduction overflowed its storage precision; construct the "
            "Solver with rescale=True (the default) or scale the input into "
            "range"
        )


def svdvals_bidiag(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Singular values of the upper bidiagonal matrix ``bidiag(d, e)``.

    The stage-3 values solver of every door: :func:`bisect` on ``d``
    ``(n,)`` or a ``(B, n)`` stack (with ``e`` ``(B, n - 1)``), solved in
    one call.  Non-finite entries raise :class:`~repro.errors.ShapeError`.
    """
    _require_finite(d, e)
    return bisect(d, e)


def _lapack_bidiag(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """SciPy/LAPACK oracle: divide & conquer on the bidiagonal matrix."""
    import scipy.linalg as sla

    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    n = d.shape[0]
    if n == 0:
        return np.zeros(0)
    try:  # pragma: no cover - depends on SciPy build
        dbdsdc = sla.lapack.get_lapack_funcs("bdsdc", dtype=np.float64)
        dd, ee, _, _, _, _, info = dbdsdc(d, np.concatenate((e, [0.0])), compq=0)
        if info == 0:
            out = np.abs(np.asarray(dd, dtype=np.float64))
            out.sort()
            return out[::-1].copy()
    except Exception:
        pass
    B = np.diag(d)
    if n > 1:
        B += np.diag(e, 1)
    return np.asarray(sla.svdvals(B), dtype=np.float64)
