from pathlib import Path

import pytest

from bcnobs.bcnio import load_document
from bcnobs.pairgraph import build

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.json"


def fixture_bcn(name: str):
    return load_document(fixture_path(name)).network


def golden_text(name: str, suffix: str = ".dot") -> str:
    return (GOLDEN_DIR / f"{name}{suffix}").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def bcn5():
    return fixture_bcn("bcn5")


@pytest.fixture(scope="session")
def bcn6():
    return fixture_bcn("bcn6")


@pytest.fixture(scope="session")
def bcn7():
    return fixture_bcn("bcn7")


@pytest.fixture(scope="session")
def graph5(bcn5):
    return build(bcn5)


@pytest.fixture(scope="session")
def graph6(bcn6):
    return build(bcn6)


@pytest.fixture(scope="session")
def graph7(bcn7):
    return build(bcn7)
