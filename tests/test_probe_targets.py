"""Every function the benchmark probes still exists where its probe looks.

perfbench/probes.py is loaded by path, as a file outside the package; each
PROBES entry is resolved the way Tracer.install resolves it, so a refactor
that renames or removes a probed name fails here rather than in a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PROBES_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PROBES = load_probes().PROBES


@pytest.mark.parametrize(
    "module, path", [(module, path) for _, module, path, _ in PROBES], ids=lambda v: v
)
def test_probe_target_resolves(module, path):
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    if classes:
        target = owner.__dict__[attr]  # defined on the class itself, not inherited
        target = getattr(target, "__func__", target)
    else:
        target = getattr(owner, attr)
    assert callable(target)
