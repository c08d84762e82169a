"""Tree-generated masks: the p^2 values lambda_{i+pj} defining m0.

The mask lives on the cosets of the level -1 annihilator inside the level 1
annihilator, indexed by the digit pair (alpha_-1, alpha_0) = (i, j) as
i + p*j.  lambda_0 = 1, every edge j->i of the tree carries a unimodular
value, everything else is zero; evaluation off the level-1 annihilator uses
the periodic extension (digits at positions >= 1 are ignored).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, CheckResult, MathError
from .group import is_prime
from .tree import RootedTree, TreeError


class MaskError(MathError):
    pass


@dataclass(frozen=True)
class MaskTable:
    p: int
    lam: np.ndarray = field(repr=False)  # length p^2, entry i + p*j

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=complex)
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        if lam.shape != (self.p**2,):  # checked first: it bounds p for the primality test
            raise MaskError(f"lambda table must have length {self.p**2}")
        if not is_prime(self.p):
            raise MaskError(f"p={self.p} is not prime")


def mask_from_tree(tree: RootedTree, phases: dict[tuple[int, int], float] | None = None) -> MaskTable:
    """Build the mask of a tree; phases map edge (parent, child) -> turns in [0, 1)."""
    p = tree.p
    phases = dict(phases or {})
    edges = set(tree.edges())
    for edge in phases:
        if tuple(edge) not in edges:
            raise MaskError(f"phase given for non-edge {edge}")
    lam = np.zeros(p * p, dtype=complex)
    lam[0] = 1.0
    for j, i in edges:
        turn = float(phases.get((j, i), 0.0))
        lam[i + p * j] = np.exp(2j * np.pi * turn) if turn else 1.0
    return MaskTable(p, lam)


def mask_to_tree(mask: MaskTable, tol: float = DEFAULT_TOL) -> tuple[RootedTree, dict[tuple[int, int], float]]:
    """Recover the generating tree and edge phases from a {0,1}-modulus mask.

    Raises MaskError when a row violates the unit-sum condition and TreeError
    (with the cycle named) when the recovered parent graph is not a tree.
    """
    p = mask.p
    mods = np.abs(mask.lam)
    if np.any(np.minimum(mods, np.abs(mods - 1.0)) > tol):
        raise MaskError("mask moduli are not {0,1}-valued")
    if abs(mask.lam[0] - 1.0) > tol:
        raise MaskError(f"lambda_0 = {mask.lam[0]}, expected exactly 1")
    parent = [0] * p
    phases: dict[tuple[int, int], float] = {}
    for i in range(1, p):
        js = [j for j in range(p) if mods[i + p * j] > 0.5]
        if len(js) != 1:
            raise MaskError(
                f"row i={i} has {len(js)} unimodular entries, expected exactly 1 "
                "(unit row-sum condition fails)"
            )
        parent[i] = js[0]
        value = mask.lam[i + p * js[0]]
        if abs(value - 1.0) > tol:
            phases[(js[0], i)] = float(np.angle(value) / (2 * np.pi)) % 1.0
    return RootedTree.validate(parent, p), phases


def residue_sums_check(name: str, sums: np.ndarray, tol: float) -> CheckResult:
    """Every per-residue sum must equal 1; where names the residue furthest off."""
    devs = np.abs(sums - 1.0)
    worst = int(np.argmax(devs))
    return CheckResult.within(name, devs[worst], tol, f"residue {worst}" if devs[worst] else "")


def check_row_condition(mask: MaskTable, tol: float = DEFAULT_TOL) -> CheckResult:
    """Per-residue sums sum_j |lambda_{i+pj}|^2, which must all equal 1."""
    p = mask.p
    sums = (np.abs(mask.lam.reshape(p, p)) ** 2).sum(axis=0)  # [j, i] -> i
    return residue_sums_check("mask-row-sums", sums, tol)


# a nan or inf weight turns the products it meets into nan or inf, which fail
@np.errstate(invalid="ignore", over="ignore")
def check_vanishing(mask: MaskTable, M: int) -> CheckResult:
    """Exhaustive product check on the shell between levels M and M+1.

    For every digit string (alpha_-1, ..., alpha_M) with alpha_M != 0 the
    product of mask values along the dilation orbit must vanish exactly, so
    no tolerance applies.  The largest modulus on the shell is the heaviest
    path through the M+2 digit positions, with edge weight |lambda[a + p*b]|
    from digit a to the digit b above it, so a max-product recursion finds it
    and its digit string in O(M p^2) instead of p^(M+2) products.
    """
    p = mask.p
    weight = np.abs(mask.lam.reshape(p, p)).T  # [a, b] = |lambda[a + p*b]|
    best = np.ones(p)  # heaviest path over the digits so far, by its last digit
    choices = []
    for _ in range(M + 1):  # digits alpha_0 .. alpha_M
        paths = best[:, None] * weight  # [last digit, next digit]
        choices.append(np.argmax(paths, axis=0))  # argmax picks a nan, so a nan spreads
        best = paths[choices[-1], np.arange(p)]
    string = [1 + int(np.argmax(best[1:] * weight[1:, 0]))]  # alpha_M != 0, the digit above it 0
    for choice in reversed(choices):
        string.insert(0, int(choice[string[0]]))
    # the deviation is the orbit product along that string, as oracle.orbit_product forms it
    digits = np.array(string)
    dev = float(np.abs(np.prod(mask.lam[digits + p * np.append(digits[1:], 0)])))
    where = f"digits {tuple(string)}" if dev else ""
    return CheckResult("mask-vanishing-shell", dev, dev == 0.0, where)
