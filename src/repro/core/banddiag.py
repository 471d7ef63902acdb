"""Stage 1: the launch schedule that reduces a dense square matrix to band.

:func:`emit_band_reduction` emits Algorithm 1/2 of the paper as launch
nodes; the :class:`~repro.sim.graph.NumericExecutor` replays them on a
padded workspace.  For each diagonal tile ``k``:

* an **RQ sweep** makes tile ``(k, k)`` upper triangular (GEQRT), applies
  the reflectors to the tile row (UNMQR), then annihilates every tile below
  the diagonal jointly with the triangle (TSQRT) while updating the paired
  tile rows (TSMQR);
* an **LQ sweep** applies the transposed algorithm to the tile right of the
  diagonal, reusing the *same* kernels on a lazy-transpose view - NumPy's
  strided ``A.T`` plays the role of Julia's lazy transpose: index-level
  transposition with no data movement.

With ``fused=True`` the TSQRT/TSMQR sequences along a panel run inside
single FTSQRT/FTSMQR launches (Figure 2), changing launch counts and memory
traffic but executing numerically identical operations in the same order.

The result is an upper band matrix of bandwidth ``TILESIZE``: the diagonal
tiles are upper triangular and the superdiagonal tiles lower triangular.
Below-band storage holds the reflector tails and is ignored downstream.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import InvalidParamsError
from ..sim.graph import LaunchNode
from ..sim.tracing import Stage

__all__ = ["emit_band_reduction"]


def _chunk_width(width: int, ts: int, streams: int) -> List[Tuple[int, int]]:
    """Column chunks ``(offset, width)`` of one trailing-update launch.

    Single-stream graphs keep the historical monolithic launch.  With
    ``streams > 1`` the launch models lookahead execution: a head chunk
    of one tile column is split off - the stand-in for the prioritized
    tile-level work that produces the next panel chain's operands - and
    the remainder is divided across the extra streams.
    """
    if streams <= 1 or width <= ts:
        return [(0, width)]
    rem_tiles = (width - ts) // ts
    parts = max(1, min(streams - 1, rem_tiles))
    chunks = [(0, ts)]
    base, extra = divmod(rem_tiles, parts)
    off = ts
    for i in range(parts):
        w = (base + (1 if i < extra else 0)) * ts
        if w == 0:
            continue
        chunks.append((off, w))
        off += w
    return chunks


def emit_band_reduction(
    nbt: int, ts: int, fused: bool = True, streams: int = 1,
    counted: bool = False, vectors: bool = False,
) -> List[LaunchNode]:
    """Emit the stage-1 launch nodes for an ``nbt x nbt`` tile grid.

    This is the paper's ``banddiag!`` (Algorithm 2) as launch nodes:
    alternating RQ/LQ sweeps of GEQRT + UNMQR + (F)TSQRT/(F)TSMQR plus the
    final diagonal GEQRT, in the order the numeric executor runs them.
    Dependencies encode, per sweep, panel -> update ordering and the
    previous sweep's updates feeding the next pivot; with ``streams > 1``
    updates are split into head/remainder chunks (see :mod:`repro.sim.graph`)
    so only the head chunk gates the next panel chain.

    ``counted=True`` folds each unfused TSQRT/TSMQR run into one node with
    ``count=r`` (the launch set and charged time are unchanged) so the
    analytic predictor stays O(tiles) on the quadratic unfused schedule;
    counted graphs are not replayable numerically.

    ``vectors=True`` (replay-only) also applies each sweep's reflectors to
    ``U^T`` (RQ) or ``V^T`` (LQ) over the padded width: an ``unmqr_acc``
    after each UNMQR and the final GEQRT, an ``ftsmqr_acc`` after each
    FTSMQR (``tsmqr_acc`` after each TSMQR), the last reader of its taus.

    Every node's ``meta`` ends with its sweep index and carries the tile
    coordinates the multi-GPU partitioner shards by (see
    :mod:`repro.sim.partition`); changing a meta layout here requires
    updating the partitioner's per-kind parsing in lock-step.
    """
    if vectors and (streams != 1 or counted):
        raise InvalidParamsError(
            "vector graphs are replay-only: emit them with streams=1 and "
            "counted=False"
        )
    nodes: List[LaunchNode] = []

    def add(kind, stage, key, meta, deps, count=1) -> int:
        nodes.append(LaunchNode(kind, stage, key, meta, tuple(deps),
                                count=count))
        return len(nodes) - 1

    last_acc = {}  # lq -> the last update of U^T (False) or V^T (True)

    def accumulate(kind, meta, panel, nrows, has_top_row) -> None:
        if vectors:
            lq = meta[0]
            deps = [panel] + ([last_acc[lq]] if lq in last_acc else [])
            last_acc[lq] = add(
                kind, Stage.UPDATE, ("update", nbt * ts, nrows, has_top_row),
                meta, deps,
            )

    prev_heads: List[int] = []  # prior-sweep updates feeding the next panel
    prev_rems: List[int] = []  # prior-sweep remainder chunks (lookahead)
    for k in range(nbt - 1):
        for lq in (False, True):
            row0 = k + 1 if lq else k
            below = (row0 + 1, nbt)  # tile-row range (start, stop)
            r = nbt - row0 - 1
            width = (nbt - 1 - k) * ts
            sweep = 2 * k + (1 if lq else 0)
            chunks = _chunk_width(width, ts, streams)

            g = add(
                "geqrt", Stage.PANEL, ("panel", 1, 1),
                (lq, row0, k, sweep), prev_heads,
            )
            u_ids = [
                add(
                    "unmqr", Stage.UPDATE, ("update", cw, 1, False),
                    (lq, row0, k, k + 1, off, cw, sweep),
                    [g] + prev_rems,
                )
                for off, cw in chunks
            ]
            accumulate("unmqr_acc", (lq, row0, k, sweep), g, 1, False)
            if r > 0:
                if fused:
                    fq = add(
                        "ftsqrt", Stage.PANEL, ("panel", r, 2),
                        (lq, row0, k, below, sweep), [g],
                    )
                    fm_ids = [
                        add(
                            "ftsmqr", Stage.UPDATE, ("update", cw, r, True),
                            (lq, row0, k, below, k + 1, off, cw, sweep),
                            [fq, u_ids[ci]],
                        )
                        for ci, (off, cw) in enumerate(chunks)
                    ]
                    accumulate(
                        "ftsmqr_acc", (lq, row0, k, below, sweep), fq, r, True
                    )
                    heads, rems = [fm_ids[0]], fm_ids[1:] + u_ids[1:]
                elif counted and streams == 1:
                    tq = add(
                        "tsqrt", Stage.PANEL, ("panel", 1, 2), (), [g],
                        count=r,
                    )
                    tm = add(
                        "tsmqr", Stage.UPDATE, ("update", width, 1, True),
                        (), [tq, u_ids[0]], count=r,
                    )
                    heads, rems = [tm], []
                else:
                    prev_tq = g
                    prev_tm = list(u_ids)  # per-chunk Y-serialization pred
                    for l in range(*below):
                        tq = add(
                            "tsqrt", Stage.PANEL, ("panel", 1, 2),
                            (lq, row0, k, l, sweep), [prev_tq],
                        )
                        prev_tm = [
                            add(
                                "tsmqr", Stage.UPDATE,
                                ("update", cw, 1, True),
                                (lq, row0, k, l, k + 1, off, cw, sweep),
                                [tq, prev_tm[ci]],
                            )
                            for ci, (off, cw) in enumerate(chunks)
                        ]
                        accumulate(
                            "tsmqr_acc", (lq, row0, k, l, sweep), tq, 1, True
                        )
                        prev_tq = tq
                    heads, rems = [prev_tm[0]], prev_tm[1:]
            else:
                heads, rems = [u_ids[0]], u_ids[1:]
            prev_heads, prev_rems = heads, rems

    # final diagonal tile: GEQRT only (Algorithm 2 line 6)
    last = (False, nbt - 1, nbt - 1, 2 * (nbt - 1))
    g = add("geqrt", Stage.PANEL, ("panel", 1, 1), last, prev_heads + prev_rems)
    accumulate("unmqr_acc", last, g, 1, False)
    return nodes
