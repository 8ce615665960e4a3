"""The shipped extraspecial generator files are what
scripts/derive_extraspecial_rows.py derives, byte for byte.

The 6561 row is left out: it alone takes several seconds to derive.
"""

import importlib.resources
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "derive_extraspecial_rows.py"


@pytest.fixture(scope="module")
def derive():
    spec = importlib.util.spec_from_file_location("derive_extraspecial_rows", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [625, 2401])
def test_shipped_file_matches_derivation(derive, n):
    name = f"extraspecial_{n}"
    shipped = importlib.resources.files("rank3").joinpath(f"data/{name}.txt").read_bytes()
    derived = derive.file_text(name, getattr(derive, f"row_{n}")())
    assert derived.encode("utf-8") == shipped
