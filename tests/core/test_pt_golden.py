"""Fig. 9 processing time is pinned bitwise against a recorded golden.

See ``golden/make_goldens.py`` for what is pinned and why only the RM
and DML columns are.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _load_make_goldens():
    spec = importlib.util.spec_from_file_location(
        "repro_tests_core_make_goldens", GOLDEN_DIR / "make_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fig9_rm_dml_pt_matches_golden():
    golden = json.loads((GOLDEN_DIR / "fig9_pt_golden.json").read_text(encoding="utf-8"))
    module = _load_make_goldens()
    columns = module.pt_columns()
    assert columns == golden["pt_hex"]
    assert module.columns_sha256(columns) == golden["pt_sha256"]
