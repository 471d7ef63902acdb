"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest

import scipy.linalg as sla

from hypothesis import settings
from hypothesis import strategies as st

# The weekly scheduled CI run exercises the property tests much harder
# than the per-PR gate; select with HYPOTHESIS_PROFILE=ci (see ci.yml).
settings.register_profile("default", settings())
settings.register_profile("ci", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config):
    """Run ``async def`` tests automatically where pytest-asyncio exists.

    The serving tests drive coroutines through ``asyncio.run`` inside
    plain test functions, so they pass with or without the plugin; this
    just keeps any future native-async tests runnable in CI (which
    installs pytest-asyncio via requirements-ci.txt) without decorating.
    """
    if config.pluginmanager.hasplugin("asyncio"):
        config.option.asyncio_mode = "auto"


@pytest.fixture
def rng() -> np.random.Generator:
    """Seeded generator - deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def kernel_calls(monkeypatch) -> Counter:
    """Calls of each stage-1 kernel, counted from executors built after.

    :class:`~repro.sim.graph.NumericExecutor` binds the six kernels of
    :mod:`repro.kernels` by module attribute when it is constructed, so
    wrapping them there counts every launch a later replay runs.
    """
    import repro.kernels

    calls: Counter = Counter()
    for name in ("geqrt", "unmqr", "ftsqrt", "ftsmqr", "tsqrt", "tsmqr"):
        kernel = getattr(repro.kernels, name)

        def counted(*args, _name=name, _kernel=kernel, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(repro.kernels, name, counted)
    return calls


def scipy_svdvals(A: np.ndarray) -> np.ndarray:
    """Float64 LAPACK singular values (the accuracy oracle)."""
    return np.asarray(sla.svdvals(np.asarray(A, dtype=np.float64)))


def rel_err(computed: np.ndarray, reference: np.ndarray) -> float:
    """Relative Frobenius error between sorted singular-value vectors."""
    a = np.sort(np.asarray(computed, dtype=np.float64))[::-1]
    b = np.sort(np.asarray(reference, dtype=np.float64))[::-1]
    denom = max(np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)


def same_bytes(x, y):
    """Bitwise equality (a +0.0 / -0.0 difference fails)."""
    np.testing.assert_array_equal(
        np.ascontiguousarray(x).view(np.uint8),
        np.ascontiguousarray(y).view(np.uint8),
    )


#: (storage, compute) dtypes the kernel oracle properties cover: fp64,
#: fp32, and fp16 storage with fp32 compute (the FP16 upcast path).
KERNEL_PRECISIONS = (
    (np.float64, np.float64),
    (np.float32, np.float32),
    (np.float16, np.float32),
)

#: Hypothesis arguments shared by the kernel oracle properties: tile
#: size, row width (0 included), RQ or LQ (transposed) views, all-zero
#: columns (clamped reflectors) and magnitude.
KERNEL_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    prec=st.sampled_from(KERNEL_PRECISIONS),
    ts=st.sampled_from([4, 8, 16, 32]),
    m=st.integers(0, 40),
    lq=st.booleans(),
    zero_cols=st.sets(st.integers(0, 31), max_size=3),
    scale=st.sampled_from([1e-2, 1.0, 1e2]),
)

#: The kernel oracle rule: a compact-WY update kernel (``unmqr``,
#: ``tsmqr``, ``ftsmqr``) and its reflector-at-a-time ``*_reference``,
#: given identical compute-precision inputs, agree entry by entry within
#: ``BLOCK_ORACLE_C * ts * eps(compute) * max(|Y|, |X|)``.  The block
#: reassociates the loop's sums; the largest gaps measured over random
#: tiles with clamped reflectors, LQ views and magnitudes 1e-2..1e2 were
#: about 3-6 eps - 0.9 ts eps at ts = 4, 0.2 ts eps at ts = 32 - so c = 4
#: leaves 4x headroom at the smallest tile and far more at ts = 32, while
#: any algebra slip shows as an O(1) gap.
BLOCK_ORACLE_C = 4.0

#: The stage-2 oracle rule: the Householder chase's bidiagonal has
#: singular values within ``CHASE_ORACLE_C * n * eps(dtype) * sigma_max``
#: of LAPACK's on the fp64 cast of its input, and so has the scalar
#: Givens chase it replaced; with accumulators, ``U B V^T`` is within the
#: same multiple of ``n eps |U_0| sigma_max |V_0|`` (spectral norms) of
#: ``U_0 A V_0^T``.  Over 1,000 random, graded, clustered, rank-deficient,
#: tiny-entry and zero-laden bands (n 3-80, fp16/32/64) both chases read
#: at most 0.44 and the accumulators 0.24, except fp64 bands scaled to
#: 1e-150, whose squared entries approach the subnormal range: up to 0.87.
#: So c = 2 leaves a margin of 4.5 at unit scale, while an algebra slip
#: shows as a gap of order sigma_max, far past the bound.
CHASE_ORACLE_C = 2.0


#: The panel oracle rule: the wavefront ``ftsqrt`` (and ``tsqrt``, its
#: one-tile call) and the column loop ``ftsqrt_reference``, given identical
#: compute-precision inputs of ``L`` tiles of size ``ts``, with
#: ``u = (L + ts) * eps(compute)``:
#:
#: * on full-rank panels, agree entry by entry: ``R`` within
#:   ``PANEL_ORACLE_C * u * max(|R0|, |B0|)``, the reflector tails and
#:   ``tau`` within ``PANEL_ORACLE_C * u`` (both are O(1));
#: * on panels with exact zero columns, or columns that are combinations of
#:   the columns before them (``v = u / x`` is then rounding noise over
#:   rounding noise, and the ``10 eps`` clamp can decide either way), each
#:   kernel's ``Q [R; 0]`` is within ``PANEL_ORACLE_C * u * max|A| + 10 eps``
#:   of ``A = [R0; B0]`` entry by entry, and the singular values of its
#:   ``R`` within ``PANEL_ORACLE_C * u * sigma_max(A) + 10 eps sqrt(L ts)``
#:   of ``A``'s (``10 eps`` in the input precision: a clamped column drops
#:   below-pivot entries smaller than that).
#:
#: The wave sums in another order than the loop's BLAS calls, and the gaps
#: grow with ``L`` through the chain in ``R``.  Over 2,000 panels drawn by
#: :func:`panel_operands` (``L`` 1-9 and 33; ts 4-32; fp64, fp32, fp16
#: storage with fp32 compute; RQ and LQ views; magnitudes 1e-2..1e2; a
#: quarter with zero and a quarter with dependent columns, 35 of which
#: flipped a clamp) the worst gaps were 0.92 u for ``R``, 0.35 u for the
#: tails, 0.40 u for ``tau``, 0.73 u for the backward error and 0.51 u for
#: the singular values (clamp terms subtracted); 2,200 more panels with
#: ``L`` up to 63 read at most 1.13 u for ``R``.  So c = 4 leaves a margin
#: of 3.5, while an algebra slip shows as a gap of order ``max|A|``.
PANEL_ORACLE_C = 4.0

#: Hypothesis arguments of the panel properties: ``KERNEL_CASES`` without
#: the row width, plus the tile count (1-9 and one tall panel) and whether
#: the chosen columns are zero or combinations of the columns before them.
PANEL_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    prec=st.sampled_from(KERNEL_PRECISIONS),
    ts=st.sampled_from([4, 8, 16, 32]),
    L=st.one_of(st.integers(1, 9), st.just(33)),
    lq=st.booleans(),
    zero_cols=st.sets(st.integers(0, 31), max_size=3),
    dependent=st.booleans(),
    scale=st.sampled_from([1e-2, 1.0, 1e2]),
)


def panel_operands(rng, L, ts, dtype, lq, scale, zero_cols=(), dependent=False):
    """Upper-triangular ``R`` and ``L`` below tiles of a random panel.

    Each column in ``zero_cols`` (mod ``ts``) is zeroed in every tile, or,
    when ``dependent``, set to a random combination of the columns before
    it (column 0 stays zero), so the panel is rank deficient.
    """
    R = np.triu(kernel_operand(rng, (ts, ts), dtype, lq, scale))
    Bs = [kernel_operand(rng, (ts, ts), dtype, lq, scale) for _ in range(L)]
    for c in {c % ts for c in zero_cols}:
        g = rng.standard_normal(c)
        for X in (R, *Bs):
            X[:, c] = (X[:, :c].astype(np.float64) @ g) if dependent else 0.0
    return R, Bs


def panel_q_times(R, Bs, taus):
    """``Q [R; 0]`` in float64 for a panel's reflectors.

    Tile ``l``'s reflector ``k`` is ``[e_k; Bs[l][:, k]]`` over the rows
    of ``R`` and of tile ``l``; the factorization applied them tile by
    tile, column by column, so ``Q`` applies them in reverse.
    """
    ts = R.shape[0]
    M = np.zeros((ts * (len(Bs) + 1), ts))
    M[:ts] = np.triu(np.asarray(R, np.float64))
    for l in reversed(range(len(Bs))):
        V = np.asarray(Bs[l], np.float64)
        rows = slice(ts * (l + 1), ts * (l + 2))
        for k in reversed(range(ts)):
            w = M[k] + V[:, k] @ M[rows]
            M[k] -= float(taus[l][k]) * w
            M[rows] -= float(taus[l][k]) * np.outer(V[:, k], w)
    return M


def assert_panel_near_reference(got, want, R0, Bs0, eps, compute, full_rank):
    """``got`` and ``want`` (each ``(R, tiles, taus)`` of one panel) within
    the panel oracle rule, for inputs ``R0``, ``Bs0`` and input eps."""
    ts, L = R0.shape[0], len(Bs0)
    unit = PANEL_ORACLE_C * (L + ts) * float(np.finfo(compute).eps)
    A = np.vstack([np.triu(np.asarray(R0, np.float64))]
                  + [np.asarray(B, np.float64) for B in Bs0])
    mag = magnitude(A)

    def gap(a, b):
        return float(np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64))
                     .max(initial=0.0))

    if full_rank:
        (Rg, Bg, tg), (Rw, Bw, tw) = got, want
        assert gap(np.triu(Rg), np.triu(Rw)) <= unit * mag, "R"
        assert max(gap(a, b) for a, b in zip(Bg, Bw)) <= unit, "tails"
        assert max(gap(a, b) for a, b in zip(tg, tw)) <= unit, "tau"
        return
    sv = scipy_svdvals(A)
    for Rk, Bk, tk in (got, want):
        backward = gap(panel_q_times(Rk, Bk, tk), A)
        assert backward <= unit * mag + 10.0 * eps, "backward error"
        svk = scipy_svdvals(np.triu(np.asarray(Rk, np.float64)))
        bound = unit * sv[0] + 10.0 * eps * np.sqrt(L * ts)
        assert gap(svk, sv) <= bound, "singular values"


def kernel_operand(rng, shape, dtype, lq=False, scale=1.0):
    """Random ``shape`` operand in ``dtype``; a lazy-transpose view when
    ``lq``, the layout LQ sweeps hand the kernels."""
    a = (scale * rng.standard_normal(shape[::-1] if lq else shape)).astype(dtype)
    return a.T if lq else a


def clone(a):
    """A copy that keeps ``a``'s memory layout (transposed views stay so)."""
    return a.copy(order="K")


def assert_near_reference(got, want, ts, compute_dtype, scale):
    """Each array of ``got`` within the kernel oracle bound of ``want``."""
    bound = BLOCK_ORACLE_C * ts * float(np.finfo(compute_dtype).eps) * scale
    for g, w in zip(got, want):
        gap = float(
            np.abs(np.asarray(g, np.float64) - np.asarray(w, np.float64))
            .max(initial=0.0)
        )
        assert gap <= bound, f"block/reference gap {gap:.3e} > {bound:.3e}"


def magnitude(*arrays) -> float:
    """``max |a|`` over every array (0 for empty ones)."""
    return max(float(np.abs(a).max(initial=0.0)) for a in arrays)
