"""Every golden output matches the checked-in sha256 manifest byte for byte."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tools" / "golden.sha256"


def _golden_module():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_outputs_match_the_manifest(tmp_path):
    expected = MANIFEST.read_text(encoding="utf-8")
    made_with = expected.splitlines()[0].removeprefix("# numpy ")
    if made_with != np.__version__:
        pytest.skip(f"manifest made with numpy {made_with}, this is numpy {np.__version__}: "
                    "numpy does not promise the same Generator streams across versions")
    golden = _golden_module()
    assert golden.main([str(tmp_path)]) == 0
    assert golden.manifest(tmp_path) == expected
