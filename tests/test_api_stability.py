"""Public-API snapshot: future PRs cannot silently drop exports.

The checked-in lists below are the supported public surface of the three
user-facing namespaces.  A failure here means an export was added or
removed: if intentional, update the snapshot *in the same PR* and mention
the surface change in CHANGES.md.
"""

import ast
from pathlib import Path

import repro
import repro.core
import repro.sim

REPRO_ALL = [
    "Backend",
    "CapacityError",
    "ConvergenceError",
    "DeviceSpec",
    "InvalidParamsError",
    "KernelParams",
    "Precision",
    "REFERENCE_PARAMS",
    "ReproError",
    "SVDResult",
    "ServiceStats",
    "ShapeError",
    "ShedError",
    "SolveConfig",
    "Solver",
    "SvdPlan",
    "SvdService",
    "Topology",
    "UnsupportedBackendError",
    "UnsupportedPrecisionError",
    "WindowOverflowError",
    "__version__",
    "list_backends",
    "resolve_backend",
    "resolve_precision",
]

CORE_ALL = [
    "SVDResult",
    "WORKLOADS",
    "WorkloadSpec",
    "band_to_bidiagonal",
    "band_width",
    "bind_batched_table",
    "bind_eigh_table",
    "bind_lowrank_table",
    "bind_svd_table",
    "bisect",
    "eigh_tridiagonal",
    "emit_band_reduction",
    "emit_batched_graph",
    "emit_brd_chase",
    "emit_eigh_graph",
    "emit_lowrank_graph",
    "emit_svd_graph",
    "emit_tallqr_graph",
    "extract_band",
    "givens",
    "golub_kahan",
    "is_upper_band",
    "jacobi_svdvals",
    "lowrank_reference",
    "ntiles",
    "pad_to_tiles",
    "qr_reduce_tall",
    "register_workload",
    "singular_2x2",
    "sketch_width",
    "svdvals_bidiag",
    "tile",
]

SIM_ALL = [
    "AnalyticExecutor",
    "CostCoefficients",
    "DEFAULT_COEFFS",
    "DEFAULT_INTER_LINK",
    "EventSchedule",
    "FabricSpec",
    "KernelParams",
    "LaunchCost",
    "LaunchGraph",
    "LaunchNode",
    "LinkSpec",
    "NodeTable",
    "NumericExecutor",
    "OccupancyInfo",
    "REFERENCE_PARAMS",
    "Stage",
    "StreamSchedule",
    "TimeBreakdown",
    "Topology",
    "bidiag_solve_cost",
    "bound_table_stats",
    "brd_cost",
    "check_shard_capacity",
    "clear_bound_tables",
    "comm_cost",
    "fleet_weights",
    "panel_cost",
    "param_grid",
    "partition_graph",
    "price_partitioned",
    "price_table",
    "rewrite_out_of_core",
    "schedule_streams",
    "shard_rows",
    "shard_rows_weighted",
    "simulate_events",
    "stage1_launch_count",
    "update_cost",
    "update_occupancy",
    "warp_utilization",
    "window_capacity_tiles",
]


class TestApiSnapshot:
    def test_repro_all(self):
        assert sorted(repro.__all__) == REPRO_ALL

    def test_core_all(self):
        assert sorted(repro.core.__all__) == CORE_ALL

    def test_sim_all(self):
        assert sorted(repro.sim.__all__) == SIM_ALL

    def test_no_dangling_exports(self):
        for mod in (repro, repro.core, repro.sim):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"

    def test_snapshots_sorted_and_unique(self):
        for snap in (REPRO_ALL, CORE_ALL, SIM_ALL):
            assert snap == sorted(set(snap))


#: Modules no other module imports by design: the ``python -m`` entry point.
ENTRY_POINTS = {"repro.experiments.__main__"}


def _package_modules():
    """``{dotted module name: (path, parsed AST)}`` for the package's files."""
    root = Path(repro.__file__).resolve().parent
    modules = {}
    for path in sorted(root.rglob("*.py")):
        parts = ("repro",) + path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = (path, ast.parse(path.read_text()))
    return modules


def _imported_modules(name, path, tree, known):
    """The package modules one module's import statements load.

    Importing ``a.b.c`` loads ``a`` and ``a.b`` too, and ``from a.b
    import c`` loads the module ``a.b.c`` when there is one; relative
    imports resolve against the importing module's package.
    """
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bases = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            anchor = package.split(".")
            base = anchor[: len(anchor) + 1 - node.level] if node.level else []
            if node.module:
                base += node.module.split(".")
            dotted = ".".join(base)
            bases = [dotted] + [f"{dotted}.{a.name}" for a in node.names]
        else:
            continue
        for dotted in bases:
            parts = dotted.split(".")
            targets.update(
                ".".join(parts[:k]) for k in range(1, len(parts) + 1)
            )
    return targets & set(known)


class TestNoOrphanModules:
    def test_every_module_is_imported_by_another(self):
        """A module no other library module imports is dead code: its
        only callers are tests, benchmarks or examples."""
        modules = _package_modules()
        imported = set()
        for name, (path, tree) in modules.items():
            imported |= _imported_modules(name, path, tree, modules) - {name}
        orphans = sorted(set(modules) - imported - ENTRY_POINTS)
        assert orphans == []
