"""Every name perfbench/tracer.py wraps or counts still resolves on its module.

The tracer patches functions where their callers look them up and counts
calls to distance classes; a renamed or deleted name would otherwise show
only when the benchmark runs traced. tracer.py uses only the standard
library, so it is compiled from its source here, without writing anything
next to it.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_spanned_name_is_a_callable_on_its_module():
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in _tracer().SPANNED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_every_counted_class_defines_its_own_call():
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in _tracer().COUNTED_CALLS
        if "__call__" not in vars(getattr(importlib.import_module(module), attr, object))
    ]
    assert missing == []
