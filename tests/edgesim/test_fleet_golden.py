"""Fleet results are pinned bitwise against a recorded golden.

See ``golden/make_goldens.py`` for the pinned configs and what each
value covers.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "fleet_golden.json").read_text(encoding="utf-8"))


def _load_make_goldens():
    spec = importlib.util.spec_from_file_location(
        "repro_tests_edgesim_make_goldens", GOLDEN_DIR / "make_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE_GOLDENS = _load_make_goldens()


def test_golden_configs_are_the_generator_configs():
    assert GOLDEN["configs"] == MAKE_GOLDENS.CONFIGS


@pytest.mark.parametrize("name", sorted(GOLDEN["cases"]))
def test_fleet_matches_golden(name):
    assert MAKE_GOLDENS.case(name) == GOLDEN["cases"][name]
