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
