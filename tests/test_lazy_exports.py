"""The PEP 562 lazy-export table stays in sync with reality.

``repro/__init__.py`` resolves top-level names on first access; nothing
at import time checks that the table's entries exist, that ``__all__``
matches, or that ``dir()`` advertises them -- a stale table would only
surface when a user touches the dead name.  These tests make the
contract executable: every advertised export resolves, every table entry
really is exported by its providing module, every subpackage imports,
every name a ``repro.*`` package lists in ``__all__`` resolves, and
unknown names still raise ``AttributeError``.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
PACKAGES = sorted(
    ".".join(("repro",) + init.parent.relative_to(ROOT).parts)
    for init in ROOT.rglob("__init__.py")
)


class TestLazyExportTable:
    def test_all_matches_export_table(self):
        assert repro.__all__ == ["__version__"] + sorted(repro._EXPORTS)

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_every_export_comes_from_its_module(self):
        for name, modname in repro._EXPORTS.items():
            module = importlib.import_module(modname)
            assert hasattr(module, name), f"{modname} does not export {name}"
            assert getattr(repro, name) is getattr(module, name)

    def test_dir_advertises_exports_and_subpackages(self):
        listing = dir(repro)
        for name in repro.__all__:
            assert name in listing
        for sub in repro._SUBPACKAGES:
            assert sub in listing

    def test_every_subpackage_imports(self):
        for sub in repro._SUBPACKAGES:
            module = getattr(repro, sub)
            assert module.__name__ == f"repro.{sub}"

    def test_parallel_subsystem_is_registered(self):
        """ISSUE 4's new subsystem must be reachable lazily."""
        assert "parallel" in repro._SUBPACKAGES
        for name in ("ProcessBackend", "ParallelRuntime",
                     "ParallelAlgorithm"):
            assert repro._EXPORTS[name] == "repro.parallel"
            assert getattr(repro, name) is not None

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist

    def test_deleted_obs_modules_stay_gone(self):
        # the Prometheus surfaces were deleted; the run record replaced them
        for modname in ("repro.obs.live", "repro.obs.metrics"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(modname)

    def test_bare_import_stays_lazy(self):
        """``import repro`` must not drag the heavy subsystems in."""
        code = (
            "import sys, repro; "
            "heavy = [m for m in ('repro.dist', 'repro.parallel', "
            "'repro.simulate', 'repro.analysis') if m in sys.modules]; "
            "assert not heavy, heavy"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_all_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names unbound {missing}"
