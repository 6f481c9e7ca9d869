import os
from pathlib import Path

import pytest

from teamlogic.datasets import load_bundled


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
