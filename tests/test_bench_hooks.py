"""The benchmark's traced run (``bench/run.py --trace 1``) replaces library
functions by name, and its ``cli`` workload runs verify suites by name; a
refactor that drops one of them must fail here."""

import importlib
import importlib.util
from pathlib import Path

from ainfty.verification import SUITES

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    layers = _load_layers()
    for name, module, attr, _ in layers.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr)), name
    for name, module, base, _, _ in layers.METHODS:
        assert isinstance(getattr(importlib.import_module(module), base), type), name


def test_cli_suites_are_verify_suites():
    assert set(_load_layers().CLI_SUITES) <= set(SUITES)
