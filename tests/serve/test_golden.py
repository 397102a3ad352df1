"""Served answers are pinned against a recorded golden.

See ``golden/make_goldens.py`` for the cases and what the digest covers.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "serve_identities_golden.json").read_text(encoding="utf-8"))


def _load_make_goldens():
    spec = importlib.util.spec_from_file_location(
        "repro_tests_serve_make_goldens", GOLDEN_DIR / "make_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE_GOLDENS = _load_make_goldens()


def test_golden_covers_every_case():
    assert set(GOLDEN["cases"]) == set(MAKE_GOLDENS.CASES)


@pytest.mark.parametrize("name", sorted(MAKE_GOLDENS.CASES))
def test_replay_identities_match_golden(name):
    count, digest = MAKE_GOLDENS.replay_case(name)
    assert count == GOLDEN["cases"][name]["requests"]
    assert digest == GOLDEN["cases"][name]["sha256"]
