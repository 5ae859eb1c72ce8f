import ast
import os
import subprocess
import sys

import semiclassics

PUBLIC_NAMES = {
    "CoincidentRoots",
    "CubicModel",
    "DegenerateAction",
    "DegenerateCubic",
    "EnergyDriftExceeded",
    "HarmonicModel",
    "IntegratorConfig",
    "NewtonDiverged",
    "NoCrossing",
    "NonConvergent",
    "OrbitModel",
    "OrbitSchemaError",
    "PoleIndex",
    "PoleProximity",
    "QuasiBoundState",
    "SemiclassicalContext",
    "SemiclassicsError",
    "StepSizeUnderflow",
    "Trajectory",
    "TurningPoints",
    "corrected_quasi_bound_energy",
    "crossing_time",
    "eval_orbit",
    "find_pole",
    "ground_state_energy",
    "hamiltonian",
    "initial_momentum",
    "integrate",
    "load_orbit",
    "orbit_from_dict",
    "pole_residual",
    "quasi_bound_energy",
    "response_function",
    "reversibility_error",
    "sinh_expansion_error",
    "turning_points",
    "wkb_lifetime",
}


def test_exports_exactly_the_public_names():
    assert len(semiclassics.__all__) == len(PUBLIC_NAMES) == 37
    assert set(semiclassics.__all__) == PUBLIC_NAMES


def test_every_export_resolves_to_its_module_object():
    for name in semiclassics.__all__:
        value = getattr(semiclassics, name)
        module = value.__module__.rsplit(".", 1)[-1]
        assert getattr(getattr(semiclassics, module), name) is value


def test_cubic_imports_neither_numpy_nor_scipy():
    # the closed forms of the cubic (roots, periods, pole times) need only
    # math and cmath
    with open(semiclassics.cubic.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "math" in imported
    assert not imported & {"numpy", "scipy"}


def test_cli_import_leaves_scipy_out():
    # scipy.integrate costs ~0.7 s and ~50 MB to import; the package runs
    # on numpy alone and scipy is only a test dependency.
    root = os.path.dirname(os.path.dirname(semiclassics.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = "import sys, semiclassics.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "[]"


def test_cli_import_builds_no_parser():
    # the argparse tree is built on the first main call, not at import
    root = os.path.dirname(os.path.dirname(semiclassics.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(type(self))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import semiclassics.cli\n"
        "print(len(built))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "0"
