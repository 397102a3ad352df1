"""Public-API surface checks: exports resolve and are documented."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.ml",
    "repro.building",
    "repro.transfer",
    "repro.importance",
    "repro.tatim",
    "repro.rl",
    "repro.allocation",
    "repro.edgesim",
    "repro.core",
    "repro.parallel",
    "repro.telemetry",
    "repro.serve",
    "repro.utils",
]

#: The consolidated facade's stability surface: removing or renaming any
#: of these is a breaking change and must bump the major version.
FACADE_SURFACE = {
    # building substrate
    "BuildingOperationConfig",
    "BuildingOperationDataset",
    # system / experiment constructors
    "DCTASystem",
    "DCTASystemConfig",
    "OnlineDCTA",
    "PTExperiment",
    "ScenarioConfig",
    "SyntheticScenario",
    "build_allocators",
    "make_strategy",
    # allocation problem + cache
    "Allocation",
    "AllocationCache",
    "TATIMProblem",
    "random_instance",
    "use_allocation_cache",
    # serving plane
    "AllocationRequest",
    "AllocationResponse",
    "Dispatcher",
    "GaussianPoissonSampler",
    "PoissonSampler",
    "ServeConfig",
    "ServeReport",
    "generate_trace",
    "make_sampler",
    # error hierarchy
    "ReproError",
    "ConfigurationError",
    "NotFittedError",
    "DataError",
    "InfeasibleProblemError",
    "InfeasibleAllocationError",
    "SimulationError",
    "TrainingError",
}


@pytest.mark.parametrize("package_name", PACKAGES)
class TestPublicSurface:
    def test_all_names_resolve(self, package_name):
        module = importlib.import_module(package_name)
        assert hasattr(module, "__all__"), f"{package_name} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package_name}.{name} missing"

    def test_module_docstring_present(self, package_name):
        module = importlib.import_module(package_name)
        assert module.__doc__ and module.__doc__.strip(), package_name

    def test_public_callables_documented(self, package_name):
        module = importlib.import_module(package_name)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"{package_name}: undocumented {undocumented}"


class TestFacade:
    """The top-level ``repro`` facade is the one import surface."""

    def test_facade_surface_stable(self):
        import repro

        exported = set(repro.__all__) - {"__version__"}
        missing = FACADE_SURFACE - exported
        assert not missing, f"facade dropped stable names: {sorted(missing)}"

    def test_facade_names_importable_from_repro(self):
        import repro

        for name in FACADE_SURFACE:
            assert getattr(repro, name) is not None, name

    def test_core_promoted_names_removed(self):
        """Facade constructors are reached through repro, not repro.core."""
        import repro
        import repro.core

        for name in ("DCTASystem", "PTExperiment", "ScenarioConfig", "OnlineDCTA"):
            assert getattr(repro, name) is not None, name
            with pytest.raises(AttributeError):
                getattr(repro.core, name)

    def test_core_unknown_attribute_still_raises(self):
        import repro.core

        with pytest.raises(AttributeError):
            repro.core.definitely_not_a_symbol


class TestVersioning:
    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_errors_all_derive_from_repro_error(self):
        import repro
        from repro.errors import ReproError

        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) and issubclass(obj, Exception) and obj is not ReproError:
                assert issubclass(obj, ReproError), name


def test_runtime_imports_only_numpy():
    """A fresh interpreter importing every package (and the CLI) loads no scipy or networkx."""
    code = "".join(f"import {name}\n" for name in [*PACKAGES, "repro.cli"]) + (
        "import sys\n"
        "print(' '.join(m for m in sorted(sys.modules)"
        " if m.split('.')[0] in ('scipy', 'networkx')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == []
