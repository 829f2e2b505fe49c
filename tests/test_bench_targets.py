"""The end-to-end benchmark's tracer names real ``repro`` functions.

``aidbench/tracer.py`` wraps a fixed list of public functions from the
outside; a refactor that deletes or renames one would only surface when
someone runs ``aidbench/run.py --trace 1``.  This test installs and
uninstalls every target against the live package instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "aidbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    name = "aidbench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(name, None)


def _resolve(target):
    module = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, meth = target.attr.split(".")
        return getattr(module, cls_name).__dict__[meth]
    return getattr(module, target.attr)


def test_every_target_installs_and_restores(tracer_module):
    targets = tracer_module.TARGETS
    originals = [_resolve(t) for t in targets]
    tracer = tracer_module.Tracer()
    tracer.install(targets)
    try:
        for target, original in zip(targets, originals):
            assert _resolve(target) is not original, target
    finally:
        tracer.uninstall()
    for target, original in zip(targets, originals):
        assert _resolve(target) is original, target
