import subprocess
import sys
from pathlib import Path

import pytest

import mu_spectra
from mu_spectra import fixtures, petersen

SRC = str(Path(mu_spectra.__file__).resolve().parent.parent)


@pytest.fixture(scope="session")
def P():
    return petersen()


@pytest.fixture(scope="session")
def catalog():
    return fixtures()


@pytest.fixture(scope="session")
def fresh():
    """Runs ``code`` in a new interpreter that imports the package from
    this checkout, with ``args`` as ``sys.argv[2:]``. The default flags,
    ``-I -S``, leave out site packages, which import some stdlib modules
    (os, re, random) before any code runs."""
    def run(code: str, *args, flags=("-I", "-S")) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *flags, "-c",
             "import sys; sys.path.insert(0, sys.argv[1])\n" + code,
             SRC, *map(str, args)],
            capture_output=True, text=True, timeout=60)
    return run
