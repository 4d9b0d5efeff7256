"""The benchmark's traced layer names must resolve in the package.

``bench/tracing.py`` names the functions it wraps as strings; one that no
longer exists would only fail when a traced benchmark run starts.  The
file is loaded by path and only read.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    names = ([(mod, path) for mod, paths in tracing.SPANNED.items()
              for path in paths] + list(tracing.COUNTED))
    missing = []
    for mod, path in names:
        try:
            owner, attr = tracing._owner(mod, path)
            found = callable(getattr(owner, attr))
        except AttributeError:
            found = False
        if not found:
            missing.append(f"{mod}.{path}")
    assert missing == []
