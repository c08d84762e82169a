"""Multi-level analysis/synthesis filter bank over a tree-generated system.

A coefficient grid is two columns: the canonical indices of its lattice
shifts (base-p digits read from position -1 downward) and their values.
The bank scatters them into dense digit tables over those keys and gathers
the nonzero rows back.  A table covers all p^w keys of up to w digits, so it
suits dense grids (every key below some p^w, as analysis, projection and the
scripts make them); a grid of a few wide keys pays p^w.
Analysis multiplies [rest, p^2] tables by the unitary p^2 x p^2 matrix W of
refinable.bank_matrix and synthesis by W^H, one product for one value or a
batch per cell; projection and materialization are lattice sums.  The group
addition is carry-free, so supports stay compact and no periodization is
needed; analysis and synthesis are exact adjoints.

Grids list only the keys whose values are not exactly zero.  Analysis,
synthesis and projection first zero every cell within the worst-case
rounding error of its own sum of n terms, gamma_{n+2} * sum |term| with
gamma_n = n u / (1 - n u), u = 2^-53 (sum |term| is one real product with
|W|, |W|^T or |phi|): where the exact result is zero, cancellation would
otherwise leave residue that adds a digit to the grid at every level.
Error carried in from coarser levels is not counted and can survive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import InputError, MathError, SizeCapError
from .group import INT64_MAX, check_table_size
from .refinable import (
    StepFunction,
    bank_matrix,
    dilation_scale,
    embed,
    lattice_sum,
    lattice_sum_adjoint_k,
    reverse_digits,
    translate_dilate,  # noqa: F401  unused; perfbench's tracer test expects it bound here
)
from .wavelet import WaveletSystem


class LevelMismatchError(InputError):
    pass


def _is_integer_type(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and t is not bool


class CoeffGrid:
    """Coordinates on one scale as two columns: `keys`, distinct int64 shift keys,
    and `values`, their complex coefficients of shape (n,), or (n, batch) when a
    batch of signals is pushed through the bank at once.  A grid given as a dict
    {key: value} builds its columns on first read; `entries`, that dict, is a
    view built on first read and kept.  The package reads only the columns.
    """

    def __init__(self, p: int, level: int, entries: dict | None = None, *, keys=None, values=None):
        self.p, self.level = p, level
        if keys is None:
            self.entries = {} if entries is None else entries
        else:
            self.keys, self.values = keys, values

    @functools.cached_property
    def entries(self) -> dict:
        return dict(zip(self.keys.tolist(), self.values))

    @functools.cached_property
    def keys(self) -> np.ndarray:
        # np.fromiter would read 1.5, True and "2" as keys 1, 1 and 2
        if not all(map(_is_integer_type, set(map(type, self.entries)))):
            bad = next(k for k in self.entries if not _is_integer_type(type(k)))
            raise InputError(f"shift key {bad!r} is a {type(bad).__name__}, not an integer")
        try:
            keys = np.fromiter(self.entries, dtype=np.int64, count=len(self.entries))
        except OverflowError:  # a key past int64
            check_key_range(self.entries, self.p)  # refuses a negative or too wide key by its range
            raise
        check_key_range((int(keys.min()), int(keys.max())) if len(keys) else (), self.p)
        return keys

    @functools.cached_property
    def values(self) -> np.ndarray:
        try:
            return np.fromiter(self.entries.values(), dtype=complex, count=len(self.entries))
        except (TypeError, ValueError):  # vector values, a row each; np.array refuses the rest alike
            return np.array(list(self.entries.values()), dtype=complex)

    def energy(self):
        return np.sum(np.abs(self.values) ** 2, axis=0)


@dataclass(frozen=True)
class CoeffPyramid:
    """Approximation at the coarsest level plus p-1 detail grids per level."""

    p: int
    approx: CoeffGrid
    details: tuple  # coarsest-first tuple of (p-1)-tuples of CoeffGrid

    def energy(self):
        return sum((g.energy() for level in self.details for g in level), start=self.approx.energy())


def shift_key_digits(key: int, p: int) -> tuple[int, ...]:
    """Digits of a shift key from position -1 downward."""
    digits = []
    while key:
        key, d = divmod(key, p)
        digits.append(d)
    return tuple(digits)


def check_key_range(keys, p: int) -> None:
    """Refuse negative shift keys, and keys of w digits when the size cap or int64 refuses p^w."""
    if keys and min(keys) < 0:  # the key itself may have thousands of digits
        raise InputError("a shift key is outside 0, 1, 2, ...")
    width = len(shift_key_digits(max(keys, default=0), p))
    check_table_size(p**width)
    if p**width > INT64_MAX:
        raise SizeCapError(f"shift keys of {width} digits at p={p} do not fit an int64 key")


def grid_error(a: CoeffGrid, b: CoeffGrid) -> float:
    """max |a - b| over the keys of both grids and the batch axis; nan if a difference is."""
    keys = np.union1d(a.keys, b.keys)
    diff = np.zeros((len(keys), *a.values.shape[1:]), dtype=complex)
    diff[np.searchsorted(keys, a.keys)] = a.values
    diff[np.searchsorted(keys, b.keys)] -= b.values
    return float(np.max(np.abs(diff), initial=0.0))


def _tables(grids, min_width: int) -> tuple[np.ndarray, int]:
    """Dense [grid, key, ...] tables over the p^w keys of w >= min_width shift digits.

    w is the digit count of the largest key; a vector value adds its axis last.
    """
    p = grids[0].p
    top = max((int(g.keys.max()) for g in grids if len(g.keys)), default=0)
    w = max(min_width, len(shift_key_digits(top, p)))
    batch = next((g.values.shape[1:] for g in grids if len(g.values)), ())
    check_table_size(len(grids) * p**w * math.prod(batch))
    tables = np.zeros((len(grids), p**w, *batch), dtype=complex)
    for table, g in zip(tables, grids):
        table[g.keys] = g.values
    return tables, w


def _grid(table: np.ndarray, p: int, level: int) -> CoeffGrid:
    """The grid of a table's entries that are not exactly zero (all-zero rows for a vector value).

    Analysis, synthesis and projection first cut rounding residue to zero (_cut_rounding).
    """
    keys = np.flatnonzero(table.reshape(len(table), -1).any(axis=1))
    return CoeffGrid(p, level, keys=keys, values=table[keys])


# Huge coefficients overflow to inf and nan in the outputs, which a round-trip
# check reads as a failure; like verify, the four maps run without warnings.
@np.errstate(over="ignore", invalid="ignore")
def analyze_level(grid: CoeffGrid, system: WaveletSystem) -> tuple[CoeffGrid, tuple[CoeffGrid, ...]]:
    """One filter-bank step: split level-n coordinates into level n-1 + details."""
    p = system.p
    (x,), w = _tables([grid], 2)
    x = x.reshape(p ** (w - 2), p * p, *x.shape[1:])  # [rest, (b_-1 + a_-2, a_-1)]
    W = bank_matrix((system.beta, *system.beta_l))
    y = _cut_rounding(_times(x, W), _times(np.abs(x), np.abs(W)), p * p)  # [rest, (l, c)]
    approx, *details = (_grid(o.reshape(-1, *x.shape[2:]), p, grid.level - 1) for o in np.split(y, p, axis=1))
    return approx, tuple(details)


@np.errstate(over="ignore", invalid="ignore")
def synthesize_level(approx: CoeffGrid, details, system: WaveletSystem) -> CoeffGrid:
    """Exact inverse of analyze_level."""
    p = system.p
    if len(details) != p - 1:
        raise LevelMismatchError(f"a level holds {len(details)} detail grids, not p - 1 = {p - 1}")
    if any(d.level != approx.level for d in details):
        raise LevelMismatchError("approximation and detail grids sit on different levels")
    tables, _ = _tables([approx, *details], 1)  # p grids of p^w keys: as many entries as the output
    # [grid l, rest, b_-1, ...] -> [rest, (l, b_-1), ...] -> [rest, (b_-1 + a_-2, a_-1), ...]
    t = tables.reshape(p, -1, p, *tables.shape[2:]).swapaxes(0, 1).reshape(-1, p * p, *tables.shape[2:])
    W = bank_matrix((system.beta, *system.beta_l))
    total = _cut_rounding(_times(t, W.conj().T), _times(np.abs(t), np.abs(W).T), p * p)
    return _grid(total.reshape(-1, *tables.shape[2:]), p, approx.level + 1)


def _times(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """y[r, j, ...] = sum_i x[r, i, ...] * matrix[i, j]: one product for one value or a batch per cell."""
    return np.moveaxis(np.tensordot(x, matrix, axes=(1, 0)), -1, 1)


def _cut_rounding(total: np.ndarray, bound: np.ndarray, n: int) -> np.ndarray:
    """Zero, in place, each cell of total within the rounding error of its own sum.

    A cell sums n complex terms whose magnitudes sum to its bound: in the
    bank p^2 products, a column of W or W^H; in project R pre-summed rows, then
    p^(M+1) products, whose roundings add, so n = R + p^(M+1).  In any order
    such a sum rounds by at most gamma_{n+2} * bound, gamma_n = n u / (1 - n u)
    (n - 1 additions; a complex product costs at most gamma_3), so a cell
    within that is indistinguishable from zero, and _grid drops it.  A
    non-finite bound (an inf or nan term, or an overflow) leaves its cell
    alone: inf <= inf would zero it.
    """
    nu = (n + 2) * np.finfo(float).eps / 2
    total[np.isfinite(bound) & (np.abs(total) <= bound * (nu / (1 - nu)))] = 0.0
    return total


def analyze(grid: CoeffGrid, system: WaveletSystem, levels: int) -> CoeffPyramid:
    """Iterated decomposition; details returned coarsest level first."""
    if levels < 1:
        raise InputError("levels must be >= 1")
    details = []
    approx = grid
    for _ in range(levels):
        approx, det = analyze_level(approx, system)
        details.append(det)
    return CoeffPyramid(system.p, approx, tuple(reversed(details)))


def synthesize(pyramid: CoeffPyramid, system: WaveletSystem) -> CoeffGrid:
    grid = pyramid.approx
    for det in pyramid.details:
        grid = synthesize_level(grid, det, system)
    return grid


@np.errstate(over="ignore", invalid="ignore")
def project(f: StepFunction, system: WaveletSystem, level: int) -> CoeffGrid:
    """Inner products of f against the level-`level` refinable basis.

    Exactness requires f to resolve the basis cells, i.e. its resolution
    level must reach M + level.
    """
    p, M = system.p, system.M
    needed = M + level
    if f.resolution_level < needed:
        raise MathError(
            f"signal resolution level {f.resolution_level} too coarse for projection "
            f"onto level {level}; resolution level >= {needed} required"
        )
    width = max(level - f.support_level, 1)
    scale = dilation_scale(p, level) * float(p) ** -f.resolution_level
    # f on the basis window [level - width, f.resolution_level), which may start below
    # f's own, summed over the digits from M + level up, where the basis is constant
    cells = embed(f, level - width, f.resolution_level).reshape(-1, p**M, p, p ** (width - 1))
    x, mag = (cells[0], np.abs(cells[0])) if len(cells) == 1 else (cells.sum(axis=0), np.abs(cells).sum(axis=0))
    phi = np.asarray(system.phi.values).reshape(-1, p)
    k = lattice_sum_adjoint_k(x, phi)  # each entry sums the rows, then p^(M+1) products
    k = _cut_rounding(k, lattice_sum_adjoint_k(mag, np.abs(phi)), len(cells) + p ** (M + 1))
    return _grid(reverse_digits(k, p, width - 1).reshape(-1) * scale, p, level)


@np.errstate(over="ignore", invalid="ignore")
def materialize(grid: CoeffGrid, system: WaveletSystem) -> StepFunction:
    """The step function with the grid's coordinates in the level-n basis."""
    p, n, M = grid.p, grid.level, system.M
    if np.ndim(grid.values) != 1:
        raise InputError(f"materialize takes one signal's grid, not a batch of {np.shape(grid.values)[-1]}")
    (c,), width = _tables([grid], 1)
    check_table_size(p ** (M + width))
    # kernel [q, a]: a the key digit -1, q its digits -2 .. -width reversed into window order
    k = reverse_digits(c.reshape(-1, p), p, width - 1) * dilation_scale(p, n)
    cells = lattice_sum(np.asarray(system.phi.values).reshape(-1, p), k)
    return StepFunction(p, n - width, M + n, cells.reshape(-1))
