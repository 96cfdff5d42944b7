"""The package's modules import each other in one order, lower layers first.

states / experiment -> protocols -> fock -> cli.  Every import of a
catbell module, at any depth (inside functions and ``if TYPE_CHECKING:``
blocks too), must point to a lower layer.  The package entry points
``__init__`` and ``__main__`` may import anything.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "catbell"
LAYERS = {"states": 0, "experiment": 0, "protocols": 1, "fock": 2, "cli": 3}
EXEMPT = {"__init__", "__main__"}


def _imported_modules(tree: ast.AST) -> set[str]:
    """Names of the catbell modules a parsed module imports, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "catbell":
                continue
            parts = (node.module or "").split(".")[0 if node.level else 1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "catbell" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - EXEMPT == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_imports_point_to_lower_layers(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    upward = {name for name in _imported_modules(tree)
              if LAYERS.get(name, len(LAYERS)) >= LAYERS[module]}
    assert not upward, f"{module} (layer {LAYERS[module]}) imports {sorted(upward)}"


# Verification names: importable from their submodules, not from the package root.
STATES_NAMES = ("Branch", "SuperposedState", "overlap", "single_photon_amp", "vacuum_amp",
                "make_state", "add_mode", "inner_product", "project_single_photon",
                "project_vacuum", "apply_beam_splitter", "apply_displacement")
EXPERIMENT_NAMES = ("PROTOCOL_TABLE", "usd2_displacement", "usd4_displacements")
PROTOCOLS_NAMES = ("build_analysis_state", "pipeline_prob")


def test_package_root_serves_only():
    import catbell
    from catbell import cli, experiment, protocols, states

    for name in STATES_NAMES + ("BeamSplitterSpec",) + EXPERIMENT_NAMES + PROTOCOLS_NAMES:
        assert not hasattr(catbell, name), name
    for name in STATES_NAMES:
        assert hasattr(states, name), name
    for name in EXPERIMENT_NAMES:
        assert hasattr(experiment, name), name
    for name in PROTOCOLS_NAMES:
        assert hasattr(protocols, name), name
    assert not hasattr(states, "BeamSplitterSpec")
    assert not {"pipeline_prob", "get_protocol"} & set(vars(cli))
    assert not {"states", "fock"} & _imported_modules(ast.parse((SRC / "__init__.py").read_text()))


def _loaded_after(code):
    """catbell modules and numpy in sys.modules after a fresh interpreter runs code."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import io, sys; {code}; print(sorted(m for m in sys.modules "
         f"if m == 'numpy' or m.split('.')[0] == 'catbell'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_serving_loads_no_verifier():
    # The closed form serves from catbell.experiment alone; only the oracle verifies.
    assert _loaded_after("import catbell") == {"catbell", "catbell.experiment"}
    served = _loaded_after(
        "import catbell.cli as cli; codes = [cli.main(argv, stream=io.StringIO()) for argv in "
        "(['rates'], ['plan'], ['sweep', '--axis', 'alpha', '--start', '1', '--stop', '50', "
        "'--steps', '5'])]; assert codes == [0, 0, 0], codes")
    assert not {"catbell.states", "catbell.protocols", "numpy"} & served, served
    oracle = _loaded_after(
        "import catbell.cli as cli; assert cli.main(['oracle', '--alpha', '2', "
        "'--distance-km-total', '0'], stream=io.StringIO()) == 0")
    assert {"catbell.protocols", "catbell.fock"} <= oracle, oracle
