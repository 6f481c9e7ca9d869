import os
from pathlib import Path

import pytest

from teamlogic.datasets import load_bundled
from teamlogic.nogo import KSConfiguration, cabello_config


def pytest_configure(config):
    # the CLI tests start fresh interpreters; they import the package from
    # this checkout, as the tests themselves do through ``pythonpath``
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def ex22():
    return load_bundled("ex22")


@pytest.fixture(scope="session")
def sig():
    return load_bundled("sig")


@pytest.fixture(scope="session")
def siglam():
    return load_bundled("siglambda")


@pytest.fixture(scope="session")
def loc6():
    return load_bundled("loc6")


@pytest.fixture(scope="session")
def pt1():
    return load_bundled("pt1")


@pytest.fixture(scope="session")
def rt2():
    return load_bundled("rt2")


@pytest.fixture(scope="session")
def hardy():
    return load_bundled("hardy")


@pytest.fixture(scope="session")
def padded_cabello():
    """Cabello-18 after two coordinate bases, each listed twice: a valid
    double cover whose transversal search tries each copy's four picks
    before it reaches Cabello-18's bases, 3,433 search nodes in all."""
    cabello, copies = cabello_config(), 2
    axes = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    pads = tuple(tuple(range(4 * c, 4 * c + 4)) for c in range(copies) for _ in range(2))
    shifted = tuple(tuple(i + 4 * copies for i in basis) for basis in cabello.bases)
    return KSConfiguration(axes * copies + cabello.vectors, pads + shifted)
