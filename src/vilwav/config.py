"""Size limits, the tolerance, the check result and the two error bases behind every exit code."""

import os
from dataclasses import dataclass
from functools import lru_cache

# Largest table we are willing to materialize (number of complex entries).
DEFAULT_SIZE_CAP = 10**8

# All constructed values are sums of p-th roots of unity scaled by powers
# of p; double precision keeps them well inside this comparison tolerance.
DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    """One named check: its worst deviation, whether that passed, and where it sits."""

    name: str
    max_deviation: float
    passed: bool
    where: str = ""

    @classmethod
    def within(cls, name: str, deviation, tol: float, where: str = "") -> "CheckResult":
        """Pass when the deviation is below tol; a nan deviation fails."""
        deviation = float(deviation)
        return cls(name, deviation, deviation < tol, where)


class InputError(ValueError):
    """Unreadable or malformed input; the CLI exits 2."""


class MathError(ValueError):
    """A mathematical check says no, or the work is refused; the CLI exits 1."""


def size_cap() -> int:
    """Current table-size cap, overridable via VILWAV_SIZE_CAP."""
    return _parse_cap(os.environ.get("VILWAV_SIZE_CAP", DEFAULT_SIZE_CAP))


@lru_cache(maxsize=8)
def _parse_cap(raw) -> int:
    """The cap a raw setting spells, parsed once per distinct string; a malformed one raises every time."""
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"VILWAV_SIZE_CAP={raw!r} is not an integer") from None


class SizeCapError(MathError):
    """A requested table would exceed the configured size cap."""
