"""Every function the benchmark's traced run wraps must still exist.

``perfbench/tracing.py`` wraps the names in its ``PATCHES`` table with
``getattr``/``setattr``, several of them private; a refactor that drops
one breaks only the traced benchmark run, so it is checked here.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# run_path compiles the source in memory and writes no bytecode next to it
PATCHES = runpy.run_path(str(TRACING))["PATCHES"]


@pytest.mark.parametrize("span, module, attribute", PATCHES)
def test_traced_name_resolves(span, module, attribute):
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
