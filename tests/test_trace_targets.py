"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name, so a renamed or deleted target makes ``install`` raise, and
``uninstall`` must put every original back."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def namespace(modules) -> dict:
    """Every module attribute, and every entry of a module-level dict or
    class, keyed by where it lives."""
    out = {}
    for module in modules:
        for name, value in vars(module).items():
            out[module.__name__, name] = value
            if isinstance(value, (dict, type)):
                entries = value if isinstance(value, dict) else vars(value)
                for key, item in dict(entries).items():
                    out[module.__name__, name, key] = item
    return out


def test_trace_targets_install_and_uninstall():
    tracing = load_tracing()
    modules = tracing.package_modules()
    before = namespace(modules)
    undo = tracing.install(tracing.Tracer())
    try:
        during = namespace(modules)
    finally:
        tracing.uninstall(undo)
    for target in tracing.TARGETS:
        where = (f"shuffle_lab.{target.module}", *target.qualname.split("."))
        assert during[where] is not before[where], target.name
    after = namespace(modules)
    assert after.keys() == before.keys()
    assert all(after[where] is value for where, value in before.items())
