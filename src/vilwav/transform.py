"""Multi-level analysis/synthesis filter bank over a tree-generated system.

Coefficient grids are sparse maps keyed by the canonical index of the
lattice shift (base-p digits read from position -1 downward).  The group
addition is carry-free, so supports stay compact and no periodization is
needed; analysis and synthesis are exact adjoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import InputError, MathError
from .refinable import StepFunction, embed, inner_product, translate_dilate
from .wavelet import WaveletSystem


class LevelMismatchError(InputError):
    pass


@dataclass(frozen=True)
class CoeffGrid:
    """Coordinates on one scale: shift key -> coefficient.

    Values are complex scalars, or equal-length numpy vectors when many
    signals are pushed through the bank at once.
    """

    p: int
    level: int
    entries: dict = field(default_factory=dict)

    def energy(self):
        return sum((np.abs(v) ** 2 for v in self.entries.values()), start=0.0)


@dataclass(frozen=True)
class CoeffPyramid:
    """Approximation at the coarsest level plus p-1 detail grids per level."""

    p: int
    approx: CoeffGrid
    details: tuple  # coarsest-first tuple of (p-1)-tuples of CoeffGrid

    def energy(self):
        total = self.approx.energy()
        for level_grids in self.details:
            for g in level_grids:
                total = total + g.energy()
        return total


def shift_key_digits(key: int, p: int) -> tuple[int, ...]:
    """Digits of a shift key from position -1 downward."""
    digits = []
    while key:
        key, d = divmod(key, p)
        digits.append(d)
    return tuple(digits)


def analyze_level(grid: CoeffGrid, system: WaveletSystem) -> tuple[CoeffGrid, tuple[CoeffGrid, ...]]:
    """One filter-bank step: split level-n coordinates into level n-1 + details."""
    p = system.p
    scale = 1.0 / math.sqrt(p)
    filters = [np.conj(system.beta)] + [np.conj(bl) for bl in system.beta_l]
    outs = [dict() for _ in filters]
    for key, c in grid.entries.items():
        a_m1 = key % p
        t = key // p
        mixed = t % p
        rest = t // p
        for a_m2 in range(p):
            j = a_m1 + p * a_m2
            g = (mixed - a_m2) % p + p * rest
            for f, out in zip(filters, outs):
                w = f[j]
                if w == 0:
                    continue
                out[g] = out.get(g, 0.0) + scale * w * c
    approx = CoeffGrid(p, grid.level - 1, outs[0])
    details = tuple(CoeffGrid(p, grid.level - 1, o) for o in outs[1:])
    return approx, details


def synthesize_level(approx: CoeffGrid, details, system: WaveletSystem) -> CoeffGrid:
    """Exact inverse of analyze_level."""
    p = system.p
    if any(d.level != approx.level for d in details):
        raise LevelMismatchError("approximation and detail grids sit on different levels")
    scale = 1.0 / math.sqrt(p)
    filters = [system.beta] + list(system.beta_l)
    grids = [approx] + list(details)
    out: dict = {}
    keys = set()
    for g in grids:
        keys.update(g.entries)
    for gkey in keys:
        b_m1 = gkey % p
        rest = gkey // p
        contribs = [g.entries.get(gkey) for g in grids]
        for a_m1 in range(p):
            for a_m2 in range(p):
                j = a_m1 + p * a_m2
                k = a_m1 + p * ((b_m1 + a_m2) % p) + p * p * rest
                acc = 0.0
                for f, c in zip(filters, contribs):
                    if c is None or f[j] == 0:
                        continue
                    acc = acc + f[j] * c
                if isinstance(acc, float) and acc == 0.0:
                    continue
                out[k] = out.get(k, 0.0) + scale * acc
    return CoeffGrid(p, approx.level + 1, out)


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
    entries = {}
    for key in range(p**width):
        basis = translate_dilate(system.phi, level, shift_key_digits(key, p))
        c = inner_product(f, basis)
        if c != 0:
            entries[key] = c
    return CoeffGrid(p, level, entries)


def materialize(grid: CoeffGrid, system: WaveletSystem) -> StepFunction:
    """The step function with the grid's coordinates in the level-n basis."""
    p, n = grid.p, grid.level
    terms = [
        (c, translate_dilate(system.phi, n, shift_key_digits(key, p)))
        for key, c in grid.entries.items()
    ]
    if not terms:
        return StepFunction(p, n - 1, system.M + n, np.zeros(p ** (system.M + 1), dtype=complex))
    lo = min(t.support_level for _, t in terms)
    hi = max(t.resolution_level for _, t in terms)
    total = np.zeros(p ** (hi - lo), dtype=complex)
    for c, t in terms:
        total += c * embed(t, lo, hi)
    return StepFunction(p, lo, hi, total)
