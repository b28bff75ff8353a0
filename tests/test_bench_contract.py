"""The benchmark's contract with the package: every function it traces exists.

``perfbench/layers.py`` names each function it wraps by its defining module
(``layers.WRAPS``).  ``layers.install`` skips a name that no longer exists,
so a traced run still exits 0 with ``correct: true`` but lacks every
per-layer metric built on that span.  A rename or a deletion of a wrapped
name fails here instead.  ``layers`` is only imported; nothing under
``perfbench/`` is written.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402  (perfbench/ must be on the path first)

WRAPPED = [(module, attr) for module, attr, _, _ in layers.WRAPS]


def test_wraps_are_listed():
    assert len(WRAPPED) == len(set(WRAPPED)) > 0


@pytest.mark.parametrize("module, attr", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_wrapped_name_resolves(module, attr):
    target = importlib.import_module(f"nmfseg.{module}")
    for part in attr.split("."):  # "SegModel.load_parameters" names a method
        target = getattr(target, part, None)
    assert callable(target), f"perfbench wraps nmfseg.{module}.{attr}, which does not exist"
