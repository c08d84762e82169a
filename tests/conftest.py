import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from vilwav import wavelet
from vilwav.oracle import gram_matrix
from vilwav.refinable import SpectrumTable, all_shifts, inverse_transform
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
    """A copy of system with the named tables (mask, beta, beta_l, phi_hat, M, phi, psi) set as given.

    The copy takes the system's fields only; a table not named is derived
    from the copy when read, so a tampered phi_hat reaches phi and psi.
    """
    copy = object.__new__(type(system))
    vars(copy).update({f.name: getattr(system, f.name) for f in dataclasses.fields(system)}, **tables)
    return copy


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


def tamper_family(monkeypatch, change):
    """Make wavelet.family_spectra hand on the family that change(keys, table) edits in place.

    Verify's Gram check, and psi_freq where a test calls it, read the edited
    family.  Returns a list that collects each (band, keys, table) handed on.
    """
    handed, real = [], wavelet.family_spectra

    def family_spectra(phi_hat_table, mask):
        keys, table = real(phi_hat_table, mask)
        change(keys, table)
        handed.append((phi_hat_table.band + 1, keys, table))
        return keys, table

    monkeypatch.setattr(wavelet, "family_spectra", family_spectra)
    return handed


def family_functions(p, band, keys, table):
    """The inverse transforms of a family's spectra, one function per row of table."""
    return [inverse_transform(SpectrumTable(p, band, keys, row)) for row in table]


def dense_table(p, band, values):
    """The spectrum whose keys are every coset of the band, arange(p^(band + 1)), holding values."""
    return SpectrumTable(p, band, np.arange(p ** (band + 1)), values)


def dense_values(spec):
    """A spectrum's values scattered to their keys in its dense table of p^(band + 1) entries."""
    values = np.zeros(spec.p ** (spec.band + 1), dtype=complex)
    values[spec.keys] = spec.values
    return values


def dense_gram_deviation(p, band, keys, table):
    """max |Gram - I| of the inverse-transformed family, by the dense oracle over the shifts of digits -1 and -2."""
    gram = gram_matrix(family_functions(p, band, keys, table), all_shifts(p, 2))
    return float(np.abs(gram - np.eye(len(gram))).max())


def run_keys(runs):
    """The shift keys a pyramid grid's runs {"first": [...], "count": [...]} hold, in file order."""
    return [k for first, count in zip(runs["first"], runs["count"]) for k in range(first, first + count)]
