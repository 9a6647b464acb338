import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_exist():
    """The benchmark's traced mode wraps these names: one renamed away breaks `--trace 1`."""
    # executed from its source, so nothing is imported from or written under perfbench/
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing.__dict__)
    names = [(module, attr) for module, attr, *_ in tracing.TARGETS]
    names += [("noisegate.recognition", "_run_external"), ("noisegate._kernels", "BACKEND")]
    assert len(names) > 2
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
