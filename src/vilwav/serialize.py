"""JSON artifacts: trees, wavelet systems, signals, coefficient pyramids.

Everything is plain JSON with complex numbers as [re, im] pairs and all
tables in canonical little-endian index order.  Files are compact (no
indentation, which would force the json module's pure-Python encoder) and
keys are sorted, so the bytes are stable across runs.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .config import InputError
from .mask import MaskTable
from .refinable import SpectrumTable, StepFunction
from .transform import CoeffGrid, CoeffPyramid, shift_key_digits
from .tree import RootedTree
from .wavelet import WaveletSystem


class FormatError(InputError):
    """Malformed or mistyped input file."""


@contextmanager
def _malformed(what: str):
    """Re-raise whatever malformed data makes a reader raise as one FormatError."""
    try:
        yield
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        raise FormatError(f"{what}: {exc}") from exc


def _cpx_out(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex)]


def _cpx_in(pairs) -> np.ndarray:
    with _malformed("bad complex array"):
        return np.array([complex(re, im) for re, im in pairs])


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top-level JSON object expected")
    return data


def _require(data: dict, key: str):
    if not isinstance(data, dict) or key not in data:
        raise FormatError(f"missing key {key!r}")
    return data[key]


# -- trees --


def tree_to_dict(tree: RootedTree, phases: dict | None = None) -> dict:
    out = {"p": tree.p, "parent": list(tree.parent)}
    if phases:
        out["phases_turns"] = {f"{j}->{i}": float(t) for (j, i), t in sorted(phases.items())}
    return out


def tree_from_dict(data: dict) -> tuple[RootedTree, dict]:
    """The tree and its edge phases; a parent array that is no tree raises TreeError."""
    with _malformed("tree"):
        p = int(_require(data, "p"))
        parent = [int(v) for v in _require(data, "parent")]
        phases = {}
        for key, turn in (data.get("phases_turns") or {}).items():
            with _malformed(f"phase key {key!r}"):
                j, i = key.split("->")
                if not math.isfinite(float(turn)):
                    raise ValueError(f"{turn} is not a finite number of turns")
                phases[(int(j), int(i))] = float(turn)
    return RootedTree.validate(parent, p), phases


# -- step functions / signals --


def step_to_dict(f: StepFunction) -> dict:
    return {
        "p": f.p,
        "support_level": f.support_level,
        "resolution_level": f.resolution_level,
        "values": _cpx_out(f.values),
    }


def step_from_dict(data: dict) -> StepFunction:
    with _malformed("step function"):
        return StepFunction(
            int(_require(data, "p")),
            int(_require(data, "support_level")),
            int(_require(data, "resolution_level")),
            _cpx_in(_require(data, "values")),
        )


# -- masks and wavelet systems --


def mask_from_dict(data: dict) -> MaskTable:
    with _malformed("mask"):
        return MaskTable(int(_require(data, "p")), _cpx_in(_require(data, "lambda")))


def system_to_dict(system: WaveletSystem) -> dict:
    return {
        "p": system.p,
        "M": system.M,
        "parent": list(system.tree.parent),
        "lambda": _cpx_out(system.mask.lam),
        "beta": _cpx_out(system.beta),
        "phi": step_to_dict(system.phi),
        "psi": [step_to_dict(f) for f in system.psi],
        "phi_hat": {"band": system.phi_hat.band, "values": _cpx_out(system.phi_hat.values)},
    }


def system_from_dict(data: dict) -> WaveletSystem:
    """A stored system; its tables must have the shapes its tree gives.

    A "beta_l" entry, which older files carry, is ignored: the wavelet
    coefficients derive from the checked beta.
    """
    with _malformed("system"):
        p, M = int(_require(data, "p")), int(_require(data, "M"))
        tree = RootedTree.validate(_require(data, "parent"), p)
        raw = _require(data, "phi_hat")
        phi_hat = SpectrumTable(p, int(_require(raw, "band")), _cpx_in(_require(raw, "values")))
        system = WaveletSystem(
            p=p,
            M=M,
            tree=tree,
            mask=mask_from_dict(data),
            beta=_cpx_in(_require(data, "beta")),
            phi=step_from_dict(_require(data, "phi")),
            phi_hat=phi_hat,
            psi=tuple(step_from_dict(d) for d in _require(data, "psi")),
        )
    found = [M, phi_hat.band, system.beta.shape]
    found += [(f.p, f.support_level, f.resolution_level) for f in (system.phi, *system.psi)]
    wanted = [tree.support_exponent, M, (p * p,), (p, -1, M), *[(p, -1, M + 1)] * (p - 1)]
    if found != wanted:
        raise FormatError(f"system tables do not fit its p={p} tree of M={tree.support_exponent}")
    return system


# -- coefficient grids and pyramids --


def grid_to_dict(grid: CoeffGrid) -> dict:
    entries = []
    for key in sorted(grid.entries):
        v = complex(grid.entries[key])
        entries.append({"shift": list(shift_key_digits(key, grid.p)), "value": [v.real, v.imag]})
    return {"level": grid.level, "entries": entries}


def grid_from_dict(data: dict, p: int) -> CoeffGrid:
    with _malformed("coefficient grid"):
        entries = {}
        for item in _require(data, "entries"):
            digits = [int(d) for d in _require(item, "shift")]
            if not all(0 <= d < p for d in digits):
                raise FormatError(f"shift digits {digits} outside 0..{p - 1}")
            re, im = _require(item, "value")
            entries[sum(d * p**i for i, d in enumerate(digits))] = complex(re, im)
        return CoeffGrid(p, int(_require(data, "level")), entries)


def pyramid_to_dict(pyramid: CoeffPyramid) -> dict:
    return {
        "p": pyramid.p,
        "approx": grid_to_dict(pyramid.approx),
        "details": [[grid_to_dict(g) for g in level] for level in pyramid.details],
    }


def pyramid_from_dict(data: dict) -> CoeffPyramid:
    with _malformed("pyramid"):
        p = int(_require(data, "p"))
        approx = grid_from_dict(_require(data, "approx"), p)
        details = tuple(
            tuple(grid_from_dict(g, p) for g in level) for level in _require(data, "details")
        )
        return CoeffPyramid(p, approx, details)
