"""JSON artifacts: trees, wavelet systems, signals, coefficient pyramids.

Everything is plain JSON with all tables in canonical little-endian index
order.  Complex numbers are [re, im] pairs in every file but a pyramid.  A
step file (a signal) is written by `step_dumps`, whose text is that of
`dumps(step_to_dict(f))` byte for byte: when at least half its cells are +0.0
in both parts, as in a reconstructed sparse signal, those cells skip the
float encoder and are written as one shared token `[0.0, 0.0]`.  It is read
by `load_step`, which parses each token as null in a text that holds no null
and that the tokens fill to a tenth or more, so only the other cells cost a
float parse each.  A wavelet system is stored
as the tree and mask that fix it; its tables are rebuilt on reading.  A
coefficient grid is {"level": L, "keys": {"first": [k, ...], "count": [n,
...]}, "values": "<base64>"}.  The keys ascend, and
each is the shift's canonical index, whose base-p digits (least significant
first) are the shift's digits from position -1 downward.  They are stored as
their maximal runs of consecutive keys: run j holds count[j] keys from
first[j] on, so the key at index i is first[j] + i - (the counts of the
runs before j summed).  The values are one base64 string of the little-endian
complex128 bytes (re then im) of each key's value, in key order.  A pyramid
is an intermediate file between `analyze` and `synthesize`, and its grids
are dense: tens of thousands of keys would otherwise cost one int each, and
their values two float reprs each, to write and as many parses to read.
Files are compact (no indentation, which would force the json module's
pure-Python encoder) and keys are sorted, so the bytes are stable across
runs.

The codecs convert whole numpy arrays at once, and every reader and writer
runs with the cyclic garbage collector paused: a JSON tree holds no cycles,
and gen-2 passes over a growing tree would cost more than building it.
"""

from __future__ import annotations

import base64
import functools
import gc
import itertools
import json
import math
from contextlib import contextmanager

import numpy as np

from .config import InputError, SizeCapError
from .mask import MaskTable
from .refinable import StepFunction
from .transform import CoeffGrid, CoeffPyramid, check_key_range
from .tree import RootedTree
from .wavelet import WaveletSystem


class FormatError(InputError):
    """Malformed or mistyped input file."""


@contextmanager
def _malformed(what: str):
    """Re-raise whatever malformed data makes a reader raise as one FormatError."""
    try:
        yield
    except SizeCapError:
        raise  # work refused up front, not malformed data
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError) as exc:
        raise FormatError(f"{what}: {exc}") from exc


def _gc_paused(fn):
    """Run fn with the cyclic collector paused, restoring its previous state."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


# json's text of a +0 cell [0.0, 0.0]; the step file writer and reader treat it as one token
_ZERO_TOKEN = "[0.0, 0.0]"


def _cpx_out(values) -> list:
    v = np.asarray(values, dtype=complex)
    return np.stack([v.real, v.imag], axis=-1).tolist()


def _cpx_json(values) -> str:
    """The text json.dumps(_cpx_out(values)) gives for a 1-D table, byte for byte.

    When at least half the cells are +0.0 in both parts, none of those is listed
    or encoded as a pair: each is written as one shared token, and each other
    cell as the reprs of its parts, which are json's text of a finite float.
    Below half, placing the tokens among the other cells costs as much as it
    saves, or more.
    """
    v = np.asarray(values, dtype=complex)
    parts = np.stack([v.real, v.imag], axis=-1)
    kept = parts.view(np.uint64).any(axis=1)  # a -0.0 part has its sign bit set, so it is kept
    if 2 * np.count_nonzero(kept) > len(kept):
        return json.dumps(parts.tolist(), check_circular=False)
    cells = [_ZERO_TOKEN] * len(kept)
    where, rows = np.flatnonzero(kept), parts[kept]
    for i, (re, im) in zip(where.tolist(), rows.tolist()):
        cells[i] = f"[{re!r}, {im!r}]"
    for i in where[~np.isfinite(rows).all(axis=1)].tolist():  # nan and inf are NaN and Infinity
        cells[i] = json.dumps(parts[i].tolist())
    return f"[{', '.join(cells)}]"


def _cpx_in(pairs) -> np.ndarray:
    """The complex array of a list of [re, im] number pairs, bit for bit."""
    with _malformed("bad complex array"):
        try:
            parts = np.array(pairs) if len(pairs) else np.zeros((0, 2))
        except ValueError:  # ragged
            parts = None
        if parts is None or parts.shape != (len(pairs), 2):
            raise ValueError("cannot unpack the values as [re, im] pairs")
        if parts.dtype.kind not in "biuf":
            raise TypeError(f"[re, im] pairs must hold numbers, not {parts.dtype}")
        # assigned part by part: re + 1j * im would turn (0, inf) into (nan, inf)
        out = np.empty(len(parts), dtype=complex)
        out.real, out.imag = parts[:, 0], parts[:, 1]
        return out


@_gc_paused
def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, check_circular=False) + "\n"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # no UTF-8
        raise FormatError(f"malformed JSON in {path}: {exc}") from exc


def _loads(path: str, text: str) -> dict:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a huge int, deep nesting
        raise FormatError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}: top-level JSON object expected")
    return data


@_gc_paused
def load_json(path: str) -> dict:
    return _loads(path, _read(path))


def _require(data: dict, key: str):
    if not isinstance(data, dict) or key not in data:
        raise FormatError(f"missing key {key!r}")
    return data[key]


# -- trees --


@_gc_paused
def tree_to_dict(tree: RootedTree, phases: dict | None = None) -> dict:
    out = {"p": tree.p, "parent": list(tree.parent)}
    if phases:
        out["phases_turns"] = {f"{j}->{i}": float(t) for (j, i), t in sorted(phases.items())}
    return out


@_gc_paused
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


def _step_head(f: StepFunction) -> dict:
    return {"p": f.p, "support_level": f.support_level, "resolution_level": f.resolution_level}


@_gc_paused
def step_to_dict(f: StepFunction) -> dict:
    return {**_step_head(f), "values": _cpx_out(f.values)}


@_gc_paused
def step_dumps(f: StepFunction) -> str:
    """The text dumps(step_to_dict(f)) gives, byte for byte, with the values written by _cpx_json."""
    head = dumps(_step_head(f))
    return f'{head[:-2]}, "values": {_cpx_json(f.values)}}}\n'  # "values" is the last key sorted


@_gc_paused
def step_from_dict(data: dict) -> StepFunction:
    return _step(data, _cpx_in)


def _step(data: dict, values_in) -> StepFunction:
    with _malformed("step function"):
        return StepFunction(
            int(_require(data, "p")),
            int(_require(data, "support_level")),
            int(_require(data, "resolution_level")),
            values_in(_require(data, "values")),
        )


def _cpx_in_nulls(cells) -> np.ndarray:
    """_cpx_in of a list of cells in which each None stands for a +0 cell."""
    kept = [c is not None for c in cells]
    out = np.zeros(len(cells), dtype=complex)
    out[np.frombuffer(bytes(kept), dtype=bool)] = _cpx_in(list(itertools.compress(cells, kept)))
    return out


@_gc_paused
def load_step(path: str) -> StepFunction:
    """step_from_dict(load_json(path)), bit for bit and refusal for refusal.

    In a text that holds no null, each +0 cell token is parsed as null and
    read as a +0 cell, so only the other cells cost a float parse each.  A
    text the swap leaves refused, as a token outside a cell would, is then
    read as it is, for the refusal and message of the plain text.  Where the
    tokens fill under a tenth of the text (about a third of the cells), the
    swap and the null cells cost more than the parse they save, so such a
    text is read as it is.
    """
    text = _read(path)
    if 10 * len(_ZERO_TOKEN) * text.count(_ZERO_TOKEN) >= len(text) and "null" not in text:
        try:
            return _step(_loads(path, text.replace(_ZERO_TOKEN, "null")), _cpx_in_nulls)
        except FormatError:
            pass
    return step_from_dict(_loads(path, text))


# -- masks and wavelet systems --


@_gc_paused
def mask_from_dict(data: dict) -> MaskTable:
    with _malformed("mask"):
        return MaskTable(int(_require(data, "p")), _cpx_in(_require(data, "lambda")))


@_gc_paused
def system_to_dict(system: WaveletSystem) -> dict:
    """The tree and mask that fix the system; a reader rebuilds its tables from them."""
    return {
        "p": system.p,
        "M": system.M,
        "parent": list(system.tree.parent),
        "lambda": _cpx_out(system.mask.lam),
    }


@_gc_paused
def system_from_dict(data: dict) -> WaveletSystem:
    """The system a stored tree and mask generate; table keys of older files are not read."""
    with _malformed("system"):
        p, M = int(_require(data, "p")), int(_require(data, "M"))
        tree = RootedTree.validate(_require(data, "parent"), p)
        mask = mask_from_dict(data)
    if M != tree.support_exponent:
        raise FormatError(f"system M={M} and its p={p} tree of M={tree.support_exponent} do not fit")
    return WaveletSystem(tree, mask)


# -- coefficient grids and pyramids --


# a grid's values column: each value's re and im as little-endian doubles
_GRID_VALUE = np.dtype("<c16")


@_gc_paused
def grid_to_dict(grid: CoeffGrid) -> dict:
    keys, values = grid.keys, grid.values
    if np.any(keys[1:] < keys[:-1]):  # the bank's grids ascend; a dict's keep its order
        order = np.argsort(keys)
        keys, values = keys[order], values[order]
    # a run starts at the first key and at each key that is not the one before it + 1
    starts = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 2) != 1)
    runs = {"first": keys[starts].tolist(), "count": np.diff(starts, append=len(keys)).tolist()}
    column = np.ascontiguousarray(values, dtype=_GRID_VALUE)  # no copy of the bank's columns
    return {"level": grid.level, "keys": runs, "values": base64.b64encode(column).decode("ascii")}


def _key_runs(runs) -> tuple[list, list, int]:
    """A file's runs of shift keys, checked as JSON, and the keys they hold in all."""
    if isinstance(runs, list):
        raise FormatError("shift keys are a list, a layout no longer read: a pyramid file holds "
                          'them as runs {"first": [k, ...], "count": [n, ...]} of consecutive keys')
    first, count = _require(runs, "first"), _require(runs, "count")
    if not all(isinstance(c, list) and set(map(type, c)) <= {int} for c in (first, count)):
        raise FormatError("shift key runs must be two lists of integers")
    if len(first) != len(count):
        raise FormatError(f"shift key runs: {len(first)} first keys for {len(count)} counts")
    if count and min(count) < 1:
        raise FormatError("a shift key run holds no key")
    return first, count, sum(count)


def _shift_keys(first: list, count: list, p: int) -> np.ndarray:
    """The int64 key column of runs that hold as many keys as the values: distinct, ascending,
    >= 0 and of a width the cap admits, all checked before the column is built."""
    try:
        starts = np.fromiter(first, dtype=np.int64, count=len(first))
    except OverflowError:  # a key past int64, refused with the message any key list gets
        check_key_range(first, p)
        raise
    lengths = np.fromiter(count, dtype=np.int64, count=len(count))  # each >= 1, so none passes their sum
    if not len(starts):
        return starts
    top = int(np.argmax(starts))
    # the least key, and the largest once the runs ascend, as checked next
    check_key_range((int(starts.min()), int(starts[top]) + count[top] - 1), p)
    behind = np.flatnonzero(np.diff(starts) < lengths[:-1])  # starts >= 0, so no difference wraps
    if behind.size:
        # sorted by start, runs overlap only where one starts inside the run before it
        order = np.argsort(starts, kind="stable")
        shared = np.flatnonzero(np.diff(starts[order]) < lengths[order][:-1])
        if shared.size:
            raise FormatError(f"two runs share the shift key {starts[order][shared[0] + 1]}")
        j = behind[0]
        raise FormatError(f"shift key runs must ascend: a run from {starts[j + 1]} follows one from {starts[j]}")
    ends = np.cumsum(lengths)  # key index i of run j is first[j] + i - (ends[j] - count[j])
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1])


def _grid_values(text, n_keys: int) -> np.ndarray:
    """The n_keys complex values a grid's base64 column holds, bit for bit."""
    if isinstance(text, list):
        raise FormatError("grid values are [re, im] pairs, a layout no longer read: "
                          "a pyramid file holds them as one base64 string of little-endian complex128")
    if not isinstance(text, str):
        raise FormatError(f"grid values must be a base64 string, not {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise FormatError(f"grid values are no base64: {exc}") from exc
    if len(raw) != _GRID_VALUE.itemsize * n_keys:
        raise FormatError(f"{n_keys} shift keys for {len(raw)} value bytes, "
                          f"not {_GRID_VALUE.itemsize} bytes a key")
    return np.frombuffer(raw, dtype=_GRID_VALUE)


@_gc_paused
def grid_from_dict(data: dict, p: int) -> CoeffGrid:
    with _malformed("coefficient grid"):
        first, count, n_keys = _key_runs(_require(data, "keys"))
        values = _grid_values(_require(data, "values"), n_keys)  # before a count of 10^18 builds anything
        keys = _shift_keys(first, count, p)
        return CoeffGrid(p, int(_require(data, "level")), keys=keys, values=values)


@_gc_paused
def pyramid_to_dict(pyramid: CoeffPyramid) -> dict:
    return {
        "p": pyramid.p,
        "approx": grid_to_dict(pyramid.approx),
        "details": [[grid_to_dict(g) for g in level] for level in pyramid.details],
    }


@_gc_paused
def pyramid_from_dict(data: dict) -> CoeffPyramid:
    with _malformed("pyramid"):
        p = int(_require(data, "p"))
        if p < 2:  # the shift keys are base-p numbers
            raise FormatError(f"p={p} is no prime")
        approx = grid_from_dict(_require(data, "approx"), p)
        details = tuple(
            tuple(grid_from_dict(g, p) for g in level) for level in _require(data, "details")
        )
        return CoeffPyramid(p, approx, details)
