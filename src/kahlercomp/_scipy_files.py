"""Modules read from scipy's files by path.

Importing a scipy file as a member of its subpackage first runs that
subpackage's ``__init__``: ``scipy.integrate`` pulls in ``scipy.optimize``,
and ``scipy.sparse`` pulls in ``numpy.f2py`` and ``numpy.ma``, which together
take longer to import than everything else this package needs.  The two files
used here (the DOP853 tableau and the compiled CSR kernels) import only
numpy, so they are loaded alone, by their paths under scipy's package
directory.  The directory comes from scipy's import spec, which locates the
package without running ``scipy/__init__``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path


def _package_dir() -> Path:
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    return Path(spec.submodule_search_locations[0])


SCIPY_DIR = _package_dir()


def load_scipy_file(relpath: str):
    """The module in the file ``relpath`` under ``SCIPY_DIR``, scipy's
    package directory, loaded as ``kahlercomp.<stem>``.  A ``relpath`` without
    a suffix names an extension module, found under this interpreter's
    extension suffixes."""
    base = SCIPY_DIR / relpath
    suffixes = [""] if base.suffix else importlib.machinery.EXTENSION_SUFFIXES
    for suffix in suffixes:
        path = base.with_name(base.name + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location(f"kahlercomp.{base.stem}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    searched = base if base.suffix else f"{base}{{{','.join(suffixes)}}}"
    raise ImportError(f"scipy has no file {searched}")
