"""LoRA-style rank selection with FP16 singular values.

The paper motivates portable, half-precision SVD with large-language-model
workloads: low-rank adaptation (LoRA) needs the spectrum of weight
matrices that are stored in FP16.  This example builds a synthetic
transformer-like weight matrix with a known low-rank update, computes its
singular values in FP16 through the unified API (the paper's headline
capability - no GPU library offered FP16 SVD before), and selects the
adapter rank from the spectral energy.

Usage::

    python examples/lora_rank_selection.py
"""

import numpy as np

import repro


def synthetic_weight(n: int, rank: int, rng) -> np.ndarray:
    """Base weights + a planted low-rank 'fine-tuning' update."""
    base = rng.standard_normal((n, n)) / np.sqrt(n)  # ~unit spectral norm
    U = rng.standard_normal((n, rank)) / np.sqrt(n)
    V = rng.standard_normal((rank, n))
    return base * 0.05 + (U * 3.0) @ V  # update dominates the spectrum


def select_rank(sv: np.ndarray, energy: float = 0.90) -> int:
    """Smallest rank capturing the requested share of spectral energy."""
    cum = np.cumsum(sv**2) / np.sum(sv**2)
    return int(np.searchsorted(cum, energy)) + 1


def main() -> None:
    rng = np.random.default_rng(42)
    n, planted_rank = 384, 12
    W = synthetic_weight(n, planted_rank, rng).astype(np.float16)
    print(f"weight matrix: {n} x {n} FP16 "
          f"({W.nbytes / 1024:.0f} KiB vs {W.nbytes * 2 / 1024:.0f} KiB FP32)")

    sv, info = repro.Solver(backend="h100", precision="fp16").solve(
        W, return_info=True
    )
    rank = select_rank(sv)
    print(f"planted update rank:  {planted_rank}")
    print(f"selected LoRA rank:   {rank}  (90% spectral energy)")
    print(f"spectral gap:         sv[{planted_rank - 1}]={sv[planted_rank - 1]:.3f} "
          f"-> sv[{planted_rank}]={sv[planted_rank]:.3f}")
    print(f"simulated H100 time:  {info.total_s * 1e3:.2f} ms (FP16)")

    # FP16 halves the memory: the paper reports H100-resident problems up
    # to 131072^2 in FP16 vs 92681^2 in FP32
    be = repro.resolve_backend("h100")
    print(f"max resident n:       fp16 {be.max_n('fp16')}, "
          f"fp32 {be.max_n('fp32')}, fp64 {be.max_n('fp64')}")

    # compare against an FP32 run: same rank decision, larger footprint
    fp32 = repro.Solver(backend="h100", precision="fp32")
    sv32 = fp32.solve(W.astype(np.float32))
    assert select_rank(sv32) == rank
    print("FP32 run selects the same rank - FP16 is sufficient here.")


if __name__ == "__main__":
    main()
