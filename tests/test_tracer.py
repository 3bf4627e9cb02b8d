"""The benchmark tracer finds every method it patches, and puts each one back.

``bench/tracer.py`` skips a method that its class does not define, which
would turn that method's traced counts to 0 without an error; this checks
its names against the package.  The file is only loaded, no benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import naads.cli  # noqa: F401  (the tracer wraps every layer, cli included)
from naads import exact, flow, report

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("naads_bench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

PATCHED = [
    (flow.FlowCache, "omega"),
    (exact.RationalRotationFamily, "displacement"),
    (exact.RationalAngle, "__init__"),
    (report.PropertyReport, "render"),
    (report.ReturnTimeSet, "render"),
]


def _module_attrs():
    return {name: dict(vars(m)) for name, m in sys.modules.items()
            if name == "naads" or name.startswith("naads.")}


def test_install_patches_each_method_and_uninstall_restores_it():
    originals = {(cls, attr): cls.__dict__.get(attr) for cls, attr in PATCHED}
    missing = [f"{cls.__name__}.{attr}" for (cls, attr), f in originals.items()
               if f is None]
    assert not missing, missing
    before = _module_attrs()
    t = tracer.Tracer()
    t.install()
    try:
        for (cls, attr), original in originals.items():
            assert cls.__dict__[attr] is not original, f"{cls.__name__}.{attr}"
        assert flow.omega is not before["naads.flow"]["omega"]
    finally:
        t.uninstall()
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original, f"{cls.__name__}.{attr}"
    after = _module_attrs()
    for name, attrs in before.items():
        changed = [k for k, v in attrs.items() if after[name].get(k) is not v]
        assert not changed, (name, changed)
