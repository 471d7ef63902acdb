"""Low-rank image compression driven by the unified singular values.

A classic SVD application (the paper cites signal/image processing): build
a synthetic test image, compute its spectrum with the unified API, choose
truncation ranks from the energy profile, and report the compression-
error trade-off.  The reconstruction uses this library's own ``Solver.svd``
extension (the paper lists singular vectors as future work), so both the
rank decision and the compressed reconstruction come from the reproduced
system.

The truncation error predicted from the values alone must match the error
measured from the factors ``U``, ``s``, ``Vt`` to within 1%; otherwise the
script exits non-zero, so running it checks the singular vectors.

Usage::

    python examples/image_compression.py
"""

import sys

import numpy as np

import repro
from repro.report import format_table


def synthetic_image(n: int = 256) -> np.ndarray:
    """Piecewise-smooth 'photo': gradients, disks and stripes."""
    y, x = np.mgrid[0:n, 0:n] / n
    img = 0.6 * x + 0.3 * y  # illumination gradient
    img += 0.4 * ((x - 0.3) ** 2 + (y - 0.4) ** 2 < 0.04)  # disk
    img += 0.25 * ((x - 0.7) ** 2 + (y - 0.7) ** 2 < 0.02)  # smaller disk
    img += 0.15 * np.sin(14 * np.pi * x) * (y > 0.6)  # texture stripes
    rng = np.random.default_rng(0)
    img += 0.01 * rng.standard_normal((n, n))  # sensor noise
    return img.astype(np.float32)


#: Largest relative gap allowed between predicted and measured error.
AGREEMENT = 0.01


def main() -> int:
    img = synthetic_image()
    n = img.shape[0]

    solver = repro.Solver(backend="rtx4060", precision="fp32")
    sv, info = solver.solve(img, return_info=True)
    print(f"{n}x{n} image, simulated RTX4060 time "
          f"{info.total_s * 1e3:.2f} ms")

    total_energy = float(np.sum(sv**2))
    # full factors for the reconstructions (the Solver.svd extension)
    res = solver.svd(img)
    body = []
    worst = 0.0
    for target in (0.90, 0.99, 0.999, 0.9999):
        k = int(np.searchsorted(np.cumsum(sv**2) / total_energy, target)) + 1
        # predicted relative Frobenius error from the tail of the spectrum
        predicted = float(np.sqrt(np.sum(sv[k:] ** 2) / total_energy))
        # verify with an actual truncated reconstruction
        approx = (res.U[:, :k] * res.s[:k]) @ res.Vt[:k]
        measured = float(
            np.linalg.norm(img - approx) / np.linalg.norm(img)
        )
        worst = max(worst, abs(measured - predicted) / predicted)
        ratio = (2 * n * k + k) / (n * n)
        body.append([
            f"{target:.2%}", str(k), f"{predicted:.2e}", f"{measured:.2e}",
            f"{100 * ratio:.1f}%",
        ])
    print(format_table(
        ["energy kept", "rank", "predicted err", "measured err", "storage"],
        body,
        title="rank selection from the unified spectrum",
    ))
    if worst > AGREEMENT:
        print(f"FAIL: predicted and measured errors differ by "
              f"{worst:.2%} (> {AGREEMENT:.0%})")
        return 1
    print(f"predicted error (from singular values alone) matches the "
          f"measured truncation error (largest relative gap {worst:.1e}) - "
          f"the values-only solver suffices for rank selection.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
