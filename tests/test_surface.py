"""The package surface: what ``qwcycle`` exports, and what the benchmark reads."""

import ast
import importlib
from pathlib import Path

import qwcycle
import qwcycle.cli
from qwcycle import reference

# the paper's literal constructions, kept in qwcycle.reference as test references
REFERENCE_NAMES = {
    "KBlock",
    "DegeneracyTable",
    "block",
    "solve_block",
    "solve_all_blocks",
    "degeneracy_table",
    "m_matrix",
    "m_kk_closed_form",
    "theta_matrix",
    "hadamard_local_ld",
    "apply_shift",
    "step",
    "time_avg_density",
    "reduce_to_coin",
}

# bench/workloads.py reads these package attributes; listed here so that a
# cut of the surface fails this test instead of crashing the benchmark
BENCH_NAMES = [
    "CoinParams",
    "EntangledPair",
    "Local",
    "VerifyConfig",
    "WalkState",
    "asymptotic_reduced_density",
    "bloch_temperature_scan",
    "coin_phase_temperature_scan",
    "limiting_distribution",
    "make_state",
    "run_verification",
]

# bench/tracing.py WRAPPED wraps these (module, attribute) pairs for the traced
# run, which skips a missing one; listed here so that a rename fails this test
# instead of reading 0 for that layer
TRACED_NAMES = [
    ("qwcycle", "limiting_distribution"),
    ("qwcycle", "asymptotic_reduced_density"),
    ("qwcycle", "bloch_temperature_scan"),
    ("qwcycle", "coin_phase_temperature_scan"),
    ("qwcycle", "run_verification"),
    ("qwcycle.cli", "main"),
    ("qwcycle.cli", "parse_state"),
    ("qwcycle.cli", "limiting_distribution"),
    ("qwcycle.cli", "asymptotic_reduced_density"),
    ("qwcycle.cli", "bloch_temperature_scan"),
    ("qwcycle.cli", "coin_phase_temperature_scan"),
    ("qwcycle.cli", "time_avg_distribution"),
    ("qwcycle.cli", "time_avg_reduced_density"),
    ("qwcycle.cli", "check_distribution"),
    ("qwcycle.cli", "check_reduced_density"),
    ("qwcycle.verify", "limiting_distribution"),
    ("qwcycle.verify", "asymptotic_reduced_density"),
    ("qwcycle.thermo", "asymptotic_reduced_density"),
    ("qwcycle.thermo", "momentum_spinors"),
    ("qwcycle.asymptotics", "momentum_spinors"),
    ("qwcycle.asymptotics", "check_distribution"),
    ("qwcycle.asymptotics", "check_reduced_density"),
]


def test_public_names_resolve_without_reference_constructions():
    for name in qwcycle.__all__:
        assert hasattr(qwcycle, name), name
    assert len(set(qwcycle.__all__)) == len(qwcycle.__all__)
    assert not REFERENCE_NAMES & set(qwcycle.__all__)


def test_every_module_export_resolves():
    # a name left in a module's __all__ after its definition goes breaks star imports
    for path in sorted(Path(qwcycle.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"qwcycle.{path.stem}".removesuffix(".__init__"))
        exports = getattr(module, "__all__", ())
        assert len(set(exports)) == len(exports), path.name
        for name in exports:
            assert hasattr(module, name), (path.name, name)


def test_reference_module_lists_the_literal_constructions():
    assert set(reference.__all__) == REFERENCE_NAMES | {"characteristic_sums"}
    for name in reference.__all__:
        assert hasattr(reference, name), name


def test_no_production_module_imports_reference():
    package = Path(qwcycle.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name in ("__init__.py", "reference.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any(n.split(".")[-1] == "reference" for n in names), path.name


def test_benchmark_surface_resolves():
    for name in BENCH_NAMES:
        assert hasattr(qwcycle, name), name
    assert callable(qwcycle.WalkState.from_grid)
    assert callable(qwcycle.verify.sample_coins)
    assert callable(qwcycle.cli.main)
    # bench/run.py: solve_all_blocks each round, degeneracy_table in traced runs
    coin = qwcycle.hadamard_params()
    assert len(qwcycle.solve_all_blocks(coin, 6)) == 6
    assert len(qwcycle.degeneracy_table(coin, 6).cross_pairs()) == 6


def test_traced_surface_resolves():
    for module, name in TRACED_NAMES:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
