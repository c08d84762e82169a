"""Multi-level analysis/synthesis filter bank over a tree-generated system.

A coefficient grid is two columns: the canonical indices of its lattice
shifts (base-p digits read from position -1 downward) and their values.
The bank scatters them into dense digit tables over those keys and gathers
the nonzero rows back.  A table covers all p^w keys of up to w digits, so it
suits dense grids (every key below some p^w, as analysis, projection and the
scripts make them); a grid of a few wide keys pays p^w.
Every map is the two-scale contraction refinable.lattice_sum or one of its
two adjoints.  The group addition is carry-free, so supports stay compact
and no periodization is needed; analysis and synthesis are exact adjoints.

Grids list only the keys whose values are not exactly zero.  Analysis and
synthesis first set to zero every cell whose magnitude lies within the
worst-case rounding error of its own sum, gamma_{p^2+2} * sum |term| with
gamma_n = n u / (1 - n u) and u = 2^-53: where the exact result is zero,
cancellation (between the p filters, or of the exact terms zero phases
give) would otherwise leave rounding residue and add a digit to the grid at
every level.  Error carried in from coarser levels is not counted, so such
residue can survive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import InputError, MathError, SizeCapError
from .group import check_table_size
from .refinable import (
    StepFunction,
    dilation_scale,
    embed,
    lattice_sum,
    lattice_sum_adjoint_g,
    lattice_sum_adjoint_k,
    reverse_digits,
    translate_dilate,  # noqa: F401  unused; perfbench's tracer test expects it bound here
)
from .wavelet import WaveletSystem


class LevelMismatchError(InputError):
    pass


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
        check_key_range(self.entries, self.p)  # before any int64 conversion
        return np.fromiter(self.entries, dtype=np.int64, count=len(self.entries))

    @functools.cached_property
    def values(self) -> np.ndarray:
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
    if p**width > np.iinfo(np.int64).max:
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

    analyze_level and synthesize_level first cut rounding residue to zero (_cut_rounding).
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
    x = x.reshape(p ** (w - 2), p, p, *x.shape[1:])  # [rest, b_-1 + a_-2, a_-1]
    ks = [np.reshape(f, (p, p)).T / math.sqrt(p) for f in (system.beta, *system.beta_l)]
    # each beta_l is beta times roots of unity, so one sum of |term| serves every filter
    bound = lattice_sum_adjoint_g(np.abs(x), np.abs(ks[0]))
    outs = [_cut_rounding(lattice_sum_adjoint_g(x, k), bound, p) for k in ks]
    approx, *details = (_grid(o.reshape(-1, *x.shape[3:]), p, grid.level - 1) for o in outs)
    return approx, tuple(details)


@np.errstate(over="ignore", invalid="ignore")
def synthesize_level(approx: CoeffGrid, details, system: WaveletSystem) -> CoeffGrid:
    """Exact inverse of analyze_level."""
    p = system.p
    if any(d.level != approx.level for d in details):
        raise LevelMismatchError("approximation and detail grids sit on different levels")
    tables, w = _tables([approx, *details], 1)  # p grids of p^w keys: as many entries as the output
    tables = tables.reshape(len(tables), p ** (w - 1), p, *tables.shape[2:])  # [grid, rest, b_-1]
    total = np.zeros((p ** (w - 1), p, p, *tables.shape[3:]), dtype=complex)  # [rest, b_-1 + a_-2, a_-1]
    bound = np.zeros(total.shape)  # sum of |term| per cell
    for t, f in zip(tables, (system.beta, *system.beta_l)):
        k = np.reshape(f, (p, p)).T / math.sqrt(p)
        total += lattice_sum(t, k)
        bound += lattice_sum(np.abs(t), np.abs(k))
    return _grid(_cut_rounding(total, bound, p).reshape(-1, *tables.shape[3:]), p, approx.level + 1)


def _cut_rounding(total: np.ndarray, bound: np.ndarray, p: int) -> np.ndarray:
    """Zero, in place, each cell of total within the rounding error of its own sum.

    A cell sums p^2 complex products (all of one filter in analysis, p of
    each filter in synthesis), whose magnitudes sum to its bound.  In any
    order such a sum rounds by at most gamma_{p^2+2} * bound, gamma_n =
    n u / (1 - n u) (p^2 - 1 additions; a complex product costs at most
    gamma_3), so a cell within that is indistinguishable from zero, and _grid
    drops it.  A non-finite bound (an inf or nan term, or an overflow) leaves
    its cell alone: inf <= inf would zero it.
    """
    nu = (p * p + 2) * np.finfo(float).eps / 2
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
    x = embed(f, level - width, f.resolution_level)
    x = x.reshape(-1, p ** (M + width)).sum(axis=0).reshape(p**M, p, p ** (width - 1))
    k = lattice_sum_adjoint_k(x, np.asarray(system.phi.values).reshape(-1, p))
    return _grid(reverse_digits(k, p, width - 1).reshape(-1) * scale, p, level)


@np.errstate(over="ignore", invalid="ignore")
def materialize(grid: CoeffGrid, system: WaveletSystem) -> StepFunction:
    """The step function with the grid's coordinates in the level-n basis."""
    p, n, M = grid.p, grid.level, system.M
    (c,), width = _tables([grid], 1)
    check_table_size(p ** (M + width))
    # kernel [q, a]: a the key digit -1, q its digits -2 .. -width reversed into window order
    k = reverse_digits(c.reshape(-1, p), p, width - 1) * dilation_scale(p, n)
    cells = lattice_sum(np.asarray(system.phi.values).reshape(-1, p), k)
    return StepFunction(p, n - width, M + n, cells.reshape(-1))
