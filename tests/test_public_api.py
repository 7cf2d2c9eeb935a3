"""The package's exported names, and the names the benchmark tracer wraps."""

import importlib.util
from pathlib import Path

import mkdvlab


def test_all_names_resolve():
    missing = [name for name in mkdvlab.__all__ if not hasattr(mkdvlab, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(mkdvlab.__all__)) == len(mkdvlab.__all__)


def test_traced_names_resolve():
    # perfbench/tracing.py replaces these attributes when a run is traced;
    # a name deleted from the package would break those runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in tracing.TRACED
        if not callable(getattr(owner, attr, None))
    ]
    assert tracing.TRACED and missing == []
