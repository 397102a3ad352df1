"""CRL query answers are pinned bitwise (``golden/make_crl_query_golden.py``).

``allocate``, ``selection_scores``, ``allocate_batch`` and the CRL/DCTA
plans must answer every query of the golden list exactly as recorded,
offline and online, with and without an ambient allocation cache, and
must count the same agents, rollouts, allocations and kNN lookups.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CASES = ("offline_uncached", "offline_cached", "online_uncached", "online_cached")


@pytest.fixture(scope="module")
def module():
    spec = importlib.util.spec_from_file_location(
        "repro_tests_make_crl_query_golden", GOLDEN_DIR / "make_crl_query_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    return json.loads((GOLDEN_DIR / "crl_query_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_queries_match_golden(module, golden, case):
    mode, cached = case.split("_")
    result = module.run_case(mode, cached == "cached")
    assert result == golden["cases"][case]
