import ast
import json
import os
import pathlib
import re
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


def test_sources_parse_at_the_oldest_supported_python():
    # the floor comes from pyproject.toml by a regex, since tomllib is new
    # in 3.11; ast.parse then refuses syntax newer than it (except*, say)
    root = pathlib.Path(__file__).resolve().parent.parent
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    version = (int(floor[1]), int(floor[2]))
    paths = [path for top in ("src", "tests", "demos") for path in sorted((root / top).rglob("*.py"))]
    assert len(paths) >= 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


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
    # scipy.integrate costs ~0.7 s and ~50 MB to import; the package needs
    # numpy only for integrate's arrays, and scipy is only a test dependency.
    root = os.path.dirname(os.path.dirname(semiclassics.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = "import sys, semiclassics.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "[]"


def test_commands_without_arrays_leave_numpy_out(tmp_path):
    # numpy is most of the CLI's start-up; only integrate's sample arrays
    # need it, so only the trajectory command loads it
    root = os.path.dirname(os.path.dirname(semiclassics.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    orbit = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "orbits",
                         "linear_orbit.json")
    commands = [
        ["tau", "--g", "0.1"],
        ["turning-points", "--g", "0.1"],
        ["crossing-time", "--g", "0.17888"],
        ["table1"],
        ["gutzwiller", "eval", "--orbit", orbit, "--energy", "1.0"],
        ["gutzwiller", "poles", "--orbit", orbit],
        ["trajectory", "--g", "0.17888", "--t-max", "1", "--out", str(tmp_path / "t.csv")],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from semiclassics.cli import main\n"
        "loaded = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    loaded.append([argv[0], code, 'numpy' in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert json.loads(out) == [[argv[0], 0, argv[0] == "trajectory"] for argv in commands]

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


def test_set_up_compiles_no_recurrence():
    # the stepper's recurrence is compiled on the first Taylor step, so
    # importing the CLI and running a command that never steps build none
    root = os.path.dirname(os.path.dirname(semiclassics.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    code = (
        "import contextlib, io\n"
        "import semiclassics.cli\n"
        "from semiclassics import trajectory\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = semiclassics.cli.main(['tau', '--g', '0.1'])\n"
        "print(code, trajectory._recurrence.cache_info().currsize)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.split() == ["0", "0"]


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # under the suite's own warning filters, the report of a failing
    # hypothesis test names the falsifying example: the plugin's
    # DeprecationWarning from its report hook is not turned into an
    # INTERNALERROR
    config = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n",
        encoding="utf-8",
    )
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert out.returncode == 1
    assert "Falsifying example" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
