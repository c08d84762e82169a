import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from vilwav import wavelet
from vilwav.tree import RootedTree
from vilwav.wavelet import build_system

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# The two seven-vertex trees used throughout as worked p=7 instances.
TREE7_A_PARENT = (0, 3, 3, 0, 5, 0, 4)
TREE7_B_PARENT = (0, 3, 3, 0, 5, 0, 2)

# A random p=11 tree of M=5: its ten psi tables of 11^7 cells would take 2.8 GB.
P11_M5_PARENT = (0, 8, 1, 8, 0, 1, 0, 2, 9, 6, 0)

# One pass/fail line per acceptance criterion, printed in the terminal summary.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def star3():
    return build_system(RootedTree.validate([0, 0, 0], 3))


@pytest.fixture(scope="session")
def chain3():
    return build_system(RootedTree.validate([0, 0, 1], 3))


@pytest.fixture(scope="session")
def tree7_a():
    return RootedTree.validate(TREE7_A_PARENT, 7)


@pytest.fixture(scope="session")
def tree7_b():
    return RootedTree.validate(TREE7_B_PARENT, 7)


@pytest.fixture
def no_tables(monkeypatch):
    """Building phi or any psi table raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("a phi or psi table was built")

    for name in ("inverse_transform", "psi_time"):
        monkeypatch.setattr(wavelet, name, refuse)


def tampered(system, **tables):
    """A copy of system with the named tables (beta, phi_hat, M, phi, psi) set as given.

    The copy takes the system's fields only; a table not named is derived
    from the copy when read, so a tampered phi_hat reaches phi and psi.
    """
    copy = object.__new__(type(system))
    vars(copy).update({f.name: getattr(system, f.name) for f in dataclasses.fields(system)}, **tables)
    return copy


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)
