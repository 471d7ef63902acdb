"""Every registered workload passes the one conformance matrix.

The matrix lives in ``tests/conformance.py`` and is registry-driven: a
future emitter registers one :class:`repro.core.workloads.WorkloadSpec`
and inherits the whole battery - bitwise numeric replay, oracle
agreement, reported-vs-analytic launch counts, binder/table equality and
the greedy-vs-events scheduler invariant across the composition axes
its graph kind supports.
"""

import numpy as np
import pytest

from conformance import (
    Row,
    analytic_rows,
    check_analytic,
    check_numeric,
    check_row,
    check_tables,
    conformance_matrix,
    matrix_size,
    numeric_rows,
    table_rows,
)
from repro.core.workloads import (
    WORKLOADS,
    WorkloadSpec,
    register_workload,
)
from repro.errors import InvalidParamsError


@pytest.mark.parametrize("row", numeric_rows(), ids=str)
def test_numeric_conformance(row):
    """Bitwise replay + NumPy oracle + launch-count equality."""
    check_numeric(row)


@pytest.mark.parametrize("row", analytic_rows(), ids=str)
def test_analytic_conformance(row):
    """Scheduler oracle invariant + deterministic predict route."""
    check_analytic(row)


@pytest.mark.parametrize("row", table_rows(), ids=str)
def test_bound_tables_conformance(row):
    """Shape-parametric binders equal emitted tables node for node."""
    check_tables(row)


class TestMatrixShape:
    """The matrix itself: coverage, sizes, registry contract."""

    def test_every_workload_has_numeric_rows(self):
        covered = {row.workload for row in numeric_rows()}
        assert covered == set(WORKLOADS)

    def test_every_workload_has_analytic_rows(self):
        covered = {row.workload for row in analytic_rows()}
        assert covered == set(WORKLOADS)

    def test_new_workloads_are_registered(self):
        # the PR's two new emitters ride the same matrix as the seed's
        assert {"svd", "tallqr", "batched", "lowrank", "eigh"} <= set(
            WORKLOADS
        )

    def test_matrix_size_accounting(self):
        size = matrix_size()
        assert size["workloads"] == len(WORKLOADS)
        assert size["total"] == (
            size["numeric"] + size["analytic"] + size["tables"]
        )
        assert size["total"] == len(conformance_matrix())
        # backends x precisions per workload
        assert size["numeric"] == 4 * len(WORKLOADS)

    def test_supported_axes_expand_the_matrix(self):
        per = {}
        for row in analytic_rows():
            per[row.workload] = per.get(row.workload, 0) + 1
        # a workload with no composition axes gets exactly the base row;
        # fully-composable workloads sweep streams/placement/ooc/fleet
        assert per["tallqr"] == 1
        assert per["svd"] > 5
        assert per["lowrank"] == per["svd"]
        assert per["eigh"] == per["svd"]

    def test_check_row_dispatch(self):
        check_row(Row(workload="svd"), "tables")
        with pytest.raises(ValueError):
            check_row(Row(workload="svd"), "nope")


class TestRegistry:
    """register_workload: one line adds a workload to the matrix."""

    def test_duplicate_registration_rejected(self):
        with pytest.raises(InvalidParamsError) as excinfo:
            register_workload(WORKLOADS["svd"])
        assert "already registered" in str(excinfo.value)

    def test_non_spec_rejected(self):
        with pytest.raises(InvalidParamsError):
            register_workload("svd")

    def test_one_line_registration_joins_the_matrix(self):
        base = WORKLOADS["svd"]
        spec = WorkloadSpec(
            name="svd-alias",
            emit=base.emit,
            make_input=base.make_input,
            run=base.run,
            run_info=base.run_info,
            reference=base.reference,
            check=base.check,
            analytic_counts=base.analytic_counts,
            bind=base.bind,
            emit_table=base.emit_table,
            predict_kwargs=base.predict_kwargs,
            supports=base.supports,
        )
        register_workload(spec)
        try:
            assert "svd-alias" in {r.workload for r in numeric_rows()}
            assert "svd-alias" in {r.workload for r in analytic_rows()}
            assert "svd-alias" in {r.workload for r in table_rows()}
            # and it passes a spot-checked battery row immediately
            check_tables(Row(workload="svd-alias"))
        finally:
            del WORKLOADS["svd-alias"]

    def test_specs_are_frozen(self):
        with pytest.raises(AttributeError):
            WORKLOADS["svd"].name = "other"

    def test_lowrank_notes_mark_the_replay_caveat(self):
        assert "analytic-only" in WORKLOADS["lowrank"].notes

    def test_oracle_values_match_reference_shapes(self):
        for name, spec in WORKLOADS.items():
            A = spec.make_input(16, 7)
            ref = np.asarray(spec.reference(A))
            assert ref.size > 0, name
