"""The package namespace is lazy: a public name imports its home module on
first access, and `import smoothldc` loads no submodule."""

import importlib
import json
import subprocess
import sys
import types

import pytest

import smoothldc
from child import package_env


@pytest.fixture
def unbound(monkeypatch):
    """smoothldc with no public name bound yet, so that each access below
    is a first access, as in a fresh interpreter."""
    for name in smoothldc._HOME:
        monkeypatch.delitem(vars(smoothldc), name, raising=False)
    return smoothldc


def home_attribute(name):
    return getattr(importlib.import_module(f"smoothldc.{smoothldc._HOME[name]}"), name)


class TestLazyNamespace:
    def test_every_public_name_is_its_home_modules_object(self, unbound):
        assert set(unbound.__all__) == {*unbound._HOME, "__version__"}
        for name in unbound._HOME:
            assert getattr(unbound, name) is home_attribute(name), name
            assert vars(unbound)[name] is home_attribute(name), name  # bound: the next access is plain

    def test_dir_lists_every_public_name(self, unbound):
        assert set(unbound.__all__) <= set(dir(unbound))

    def test_star_import_binds_every_name(self, unbound):
        namespace = {}
        exec("from smoothldc import *", namespace)
        assert namespace["__version__"] == unbound.__version__
        for name in unbound._HOME:
            assert namespace[name] is home_attribute(name), name

    def test_an_unknown_name_gets_the_default_error(self, unbound):
        with pytest.raises(AttributeError) as plain:
            types.ModuleType("smoothldc").no_such_name
        with pytest.raises(AttributeError) as lazy:
            unbound.no_such_name
        assert str(lazy.value) == str(plain.value) == "module 'smoothldc' has no attribute 'no_such_name'"

    def test_from_import_still_reaches_submodules(self, unbound, monkeypatch):
        monkeypatch.delattr(unbound, "verify", raising=False)  # as before its first import
        from smoothldc import verify

        assert verify is sys.modules["smoothldc.verify"]
        with pytest.raises(ImportError):
            from smoothldc import _kernels  # noqa: F401

    def test_import_loads_no_submodule(self):
        script = (
            "import json, sys, smoothldc;"
            " print(json.dumps(sorted(m for m in sys.modules if m.startswith('smoothldc.'))))"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                timeout=60, env=package_env())
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == []
