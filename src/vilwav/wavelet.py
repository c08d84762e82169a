"""Refinement coefficients and the p-1 wavelets of a tree-generated system.

The coefficients beta solve a p^2 x p^2 character system whose matrix is
unitary, so they come out of a closed-form adjoint sum.  A system is its
tree and mask.  beta and phi_hat, its p support cosets keyed, are computed
with it; the cell tables phi (the full inverse transform of phi_hat, exact
zeros included) and psi (the time route: the refinement sum of dilated
translates of phi) are built on first read, and verify reads neither.  It
checks the refinement identity on the at most p^2 + p cosets of phi_hat
and its preimages, each wavelet's two routes as masks on the p^2 cells (the
spectrum of the time route's sum against the shifted mask of the frequency
route), and the Gram of the translates by Parseval on the family's sparse
spectra (family_spectra: each wavelet's is the shifted mask times phi_hat
dilated).  psi_freq inverts those spectra to cells, as a sum of p characters.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .config import DEFAULT_TOL, CheckResult, SizeCapError
from .group import char_kernel_apply, check_table_size, unit_roots
from .mask import MaskTable, check_row_condition, check_vanishing, mask_from_tree
from .refinable import (
    SpectrumTable,
    StepFunction,
    check_elementary,
    check_orthonormality_spectral,
    coset_characters,
    inverse_transform,
    lattice_sum,
    phi_hat_from_tree,
    translate_dilate,  # noqa: F401  unused; perfbench's tracer test expects it bound here
)
from .tree import RootedTree


def solve_beta(mask: MaskTable) -> np.ndarray:
    """Closed-form refinement coefficients, beta_j indexed j = a_-1 + p*a_-2.

    The linear system pairing mask values with the coefficients has a unitary
    character matrix, so beta is the adjoint sum
    beta_j = (1/p) sum_k m_k * omega^(alpha_-1 a_-2 + alpha_0 a_-1).
    """
    p = mask.p
    crossed = mask.lam.reshape(p, p).T.reshape(-1)  # index alpha_0 + p*alpha_-1
    return char_kernel_apply(crossed, p, 2, +1) / p


@lru_cache(maxsize=None)
def _beta_system(p: int) -> np.ndarray:
    """The dense system (1/p) conj((chi_k, A^-1 h_j)), row k = alpha_-1 + p*alpha_0, column j."""
    high, low = np.divmod(np.arange(p * p), p)  # the two digits of each index
    table = unit_roots(p).conj()[(np.outer(low, high) + np.outer(high, low)) % p] / p
    table.setflags(write=False)
    return table


def beta_residual(mask: MaskTable, beta: np.ndarray, tol: float = DEFAULT_TOL) -> CheckResult:
    """Max deviation when beta is substituted back into the defining system."""
    dev = np.abs(_beta_system(mask.p) @ beta - mask.lam).max()
    return CheckResult.within("beta-residual", dev, tol)


def beta_shifted(beta: np.ndarray, l: int, p: int) -> np.ndarray:
    """Wavelet coefficients beta_j^(l) = beta_j * omega^(l * a_-1)."""
    if not (1 <= l <= p - 1):
        raise ValueError(f"wavelet index l={l} out of range 1..{p - 1}")
    a_m1 = np.arange(p * p) % p
    return beta * unit_roots(p)[(l * a_m1) % p]


def assemble_refinement_sum(phi: StepFunction, coeffs: np.ndarray) -> StepFunction:
    """sum_j coeffs_j * phi(A x - h_j) over the two-digit lattice, cell-exact.

    The result is materialized one level finer than phi (window widened by a
    digit) because the individual translates are not constant on phi's cells.
    With j = a_-1 + p*a_-2, A x - h_j lies in G_-1 only when a_-2 = x_-1, so
    the cell (x_-1, x_0, rest) gets sum_a coeffs[a + p*x_-1] * phi[(x_0 - a) mod p, rest].
    """
    if phi.support_level != -1:
        raise ValueError("assemble_refinement_sum expects support level -1")
    p = phi.p
    check_table_size(p ** (phi.width + 1))
    cells = np.asarray(phi.values).reshape(-1, p)  # [rest, x_-1]
    total = lattice_sum(cells, np.asarray(coeffs).reshape(p, p))  # [rest, x_0, x_-1]
    return StepFunction(p, -1, phi.resolution_level + 1, total.reshape(-1))


def psi_time(phi: StepFunction, beta_l: np.ndarray) -> StepFunction:
    """Wavelet from its defining sum of dilated translates."""
    return assemble_refinement_sum(phi, beta_l)


def shifted_masks(mask: MaskTable) -> np.ndarray:
    """Every m_l as one [l, xi_0, xi_-1] table: entry (l, b, a) is lambda at a + p*((b - l) mod p)."""
    p = mask.p
    return mask.lam.reshape(p, p)[(np.arange(p) - np.arange(p)[:, None]) % p]


def wavelet_keys(phi_hat_table: SpectrumTable) -> np.ndarray:
    """The keys a + p*s of the p cosets over each key s of phi_hat, as [s, a]; refused past int64."""
    p = phi_hat_table.p
    if p ** (phi_hat_table.band + 2) > np.iinfo(np.int64).max:  # a + p*s would wrap
        raise SizeCapError(f"wavelet spectrum keys of {phi_hat_table.band + 2} digits at p={p} "
                           "do not fit an int64 key")
    return np.arange(p) + p * phi_hat_table.keys[:, None]


def family_spectra(phi_hat_table: SpectrumTable, mask: MaskTable) -> tuple[np.ndarray, np.ndarray]:
    """Sorted coset keys and the spectra of phi and the p - 1 wavelets there, one row each, size-capped.

    psi_l-hat (oracle.psi_hat) is phi_hat[s] * m_l[s mod p, a] at the wavelet_keys a + p*s over
    phi_hat's keys s, and zero elsewhere; phi shares the keys it meets.
    """
    p, support, values = mask.p, phi_hat_table.keys, phi_hat_table.values
    keys, column = np.unique(np.append(support, wavelet_keys(phi_hat_table)), return_inverse=True)
    check_table_size(p * len(keys), "the family's spectra")
    table = np.zeros((p, len(keys)), dtype=complex)
    table[0, column[: len(support)]] = values
    psi = values[:, None] * shifted_masks(mask)[1:, support % p]  # [l, s, a]
    table[1:, column[len(support):]] = psi.reshape(p - 1, -1)
    return keys, table


def refinement_cosets(phi_hat_table: SpectrumTable, m0: np.ndarray, tol: float = DEFAULT_TOL) -> CheckResult:
    """The refinement identity phi_hat(x) = m0(x mod p^2) * phi_hat(x // p) on phi_hat's keys and their
    p^2 preimages, the wavelet_keys; off them both sides are 0.

    With m0 the mask beta implies, beta, the mask and phi_hat meet as in the refinement sum on
    cells; the root's key 0 maps to itself through lambda_0.  A coset off by d moves each cell
    of that sum by d / p, so the deviation runs about p times a cell one.
    """
    p = phi_hat_table.p
    cosets = np.append(phi_hat_table.keys, wavelet_keys(phi_hat_table))
    order = np.argsort(phi_hat_table.keys)
    keys, values = phi_hat_table.keys[order], phi_hat_table.values[order]

    def phi_hat(x):  # 0 off the keys
        at = np.minimum(np.searchsorted(keys, x), len(keys) - 1)
        return np.where(keys[at] == x, values[at], 0)

    dev, (i,) = _worst(np.abs(phi_hat(cosets) - m0[cosets % p**2] * phi_hat(cosets // p)))
    return CheckResult.within("refinement-cosets", dev, tol, f"coset {cosets[i]}" if dev else "")


def psi_two_route(beta_l, mask: MaskTable, tol: float = DEFAULT_TOL) -> CheckResult:
    """Each wavelet's mask by both routes on the p^2 cells: the spectrum of the time route's sum,
    _beta_system @ beta_l, against the frequency route's shifted mask m_l.  where names the worst."""
    p = mask.p
    time = np.asarray(beta_l) @ _beta_system(p).T  # [l - 1, cell a + p*b]
    dev, (l, cell) = _worst(np.abs(time - shifted_masks(mask)[1:].reshape(p - 1, -1)))
    return CheckResult.within("psi-two-route", dev, tol, f"wavelet {l + 1}, cell {cell}" if dev else "")


def psi_freq(keys: np.ndarray, table: np.ndarray, band: int) -> Iterator[StepFunction]:
    """The p - 1 wavelets of family_spectra, for phi_hat of this band, by the frequency route, one at a time.

    Each must match psi_time cell for cell.  It is one character sum (coset_characters, formed once)
    over the cosets its shifted mask keeps, p for a tree: no dense spectrum, not phi's full transform.
    """
    p, w = len(table), band + 2
    keep = table[1:] != 0
    check_table_size(max(int(keep.sum(axis=1).max()), 1) * p**w)
    used = keep.any(axis=0)
    deep, shallow = coset_characters(keys[used], p, w)
    for c, k in zip(table[1:, used] / p, keep[:, used]):
        yield StepFunction(p, -1, w - 1, ((deep[k] * c[k, None]).T @ shallow[k]).reshape(-1))


def family_correlation(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """c[i, k, d] = <f_i, f_k(x - d)> over the family_spectra functions, for the p shifts d of digit -1.

    Parseval on the spectra: with G_r[i, k] the sum of f_i-hat * conj f_k-hat over the keys of
    lowest digit r, c[i, k, d] = (1/p) sum_r G_r[i, k] omega^(r d), exact for any sparse family.  It is
    the cell tables' Gram to about 2 sqrt(p) tol: phi is inverse_transform(phi_hat) exactly, and each
    psi table's spectrum is its time-route mask times phi_hat dilated, which psi-two-route holds
    within tol of the shifted mask on each of the p^2 cosets it meets.
    """
    p = len(table)
    # each residue's columns, in key order, padded with zero columns to the largest: blocks[r, i, slot]
    residue = keys % p
    order = np.argsort(residue, kind="stable")
    counts = np.bincount(residue, minlength=p)
    slot = np.arange(len(keys)) - np.repeat(np.cumsum(counts) - counts, counts)
    blocks = np.zeros((p, p, counts.max(initial=0)), dtype=complex)
    blocks[residue[order], :, slot] = table[:, order].T
    gram = blocks @ blocks.conj().transpose(0, 2, 1)
    return (char_kernel_apply(gram, p, 1, +1) / p).transpose(1, 2, 0)


@dataclass(frozen=True)
class WaveletSystem:
    """The system a tree and its mask generate; every table is derived from the two.

    beta and phi_hat, all that the spectral checks read, are computed at
    construction; M, beta_l and the cell tables phi and psi on first read,
    then kept.  So dataclasses.replace builds no cell table.
    """

    tree: RootedTree
    mask: MaskTable
    beta: np.ndarray = field(init=False, repr=False)
    phi_hat: SpectrumTable = field(init=False)

    # A stored mask may hold huge or non-finite values; here and in phi and
    # psi they overflow to inf and nan, quietly, and verify reads them as failures.
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        object.__setattr__(self, "phi_hat", phi_hat_from_tree(self.tree, self.mask))
        object.__setattr__(self, "beta", solve_beta(self.mask))

    @property
    def p(self) -> int:
        """The prime of the group, the tree's vertex count."""
        return self.tree.p

    @cached_property
    def M(self) -> int:
        """The tree's support exponent, height - 2: phi_hat lives on band M."""
        return self.tree.support_exponent

    @cached_property
    def beta_l(self) -> tuple[np.ndarray, ...]:
        """The wavelet coefficients, derived from beta, which beta-residual checks."""
        return tuple(beta_shifted(self.beta, l, self.p) for l in range(1, self.p))

    # The kernels are looked up when a table is built, so a tracer that
    # rebinds them sees each call.
    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def phi(self) -> StepFunction:
        """phi, the full inverse transform of phi_hat."""
        return inverse_transform(self.phi_hat)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def psi(self) -> tuple[StepFunction, ...]:
        """The p - 1 wavelets by the time route, counted with phi against the cap before any is built."""
        p, M = self.p, self.M
        check_table_size(p ** (M + 1) + (p - 1) * p ** (M + 2), "phi and the psi tables")
        return tuple(psi_time(self.phi, beta_l) for beta_l in self.beta_l)


def build_system(tree: RootedTree, phases=None) -> WaveletSystem:
    """Tree -> mask -> spectrum and beta; phi and the wavelets follow on first read."""
    return WaveletSystem(tree, mask_from_tree(tree, phases))


def shifted_mask_checks(mask: MaskTable, tol: float = DEFAULT_TOL) -> CheckResult:
    """Exhaustive m_l structure checks on the two-digit window.

    Verifies m_l * m_k = 0 for k != l and |m_l| = 1 exactly where the
    unshifted support, rotated by l, sits.  The deviation is the max violation.
    """
    mods = np.abs(shifted_masks(mask))  # [l, xi_0, xi_-1]
    modulus_dev = np.where(mods > 0.5, np.abs(mods - 1.0), mods)
    top = np.sort(mods, axis=0)[-2:]  # per cell, the two largest |m_l|, whose product is the largest |m_l m_k|
    dev = np.max([modulus_dev.max(), (top[0] * top[1]).max()])
    return CheckResult.within("shifted-mask-structure", dev, tol)


# Huge or non-finite values overflow to inf and nan, which every check reads as a failure.
@np.errstate(over="ignore", invalid="ignore")
def verify_wavelet_system(
    system: WaveletSystem, spectral_only: bool = False, tol: float = DEFAULT_TOL
) -> list[CheckResult]:
    """Run every finite verification the construction promises, on spectra alone.

    The spectral level is seven table lookups and sums and the refinement
    identity on phi_hat's keys and their preimages (refinement_cosets).  The
    full level adds the two routes to each wavelet as masks (psi_two_route)
    and the Gram check of the lattice translates, read off the family's
    sparse spectra (family_correlation).  No cell table is built, so every
    M whose keys fit int64 is reached.  A coset deviation runs about p
    times the deviation of the same fault in the cell tables, and tol bounds
    both: every check but the exact vanishing one passes below it.
    """
    p, M = system.p, system.M
    checks = [
        check_row_condition(system.mask, tol),
        check_vanishing(system.mask, M),
        check_elementary(system.phi_hat, tol),
        check_orthonormality_spectral(system.phi_hat, tol),
        beta_residual(system.mask, system.beta, tol),
        CheckResult.within("beta-energy", abs(float((np.abs(system.beta) ** 2).sum()) - p), tol),
        shifted_mask_checks(system.mask, tol),
        refinement_cosets(system.phi_hat, _beta_system(p) @ system.beta, tol),
    ]
    if spectral_only:
        return checks
    checks.append(psi_two_route(system.beta_l, system.mask, tol))

    # the translates of phi and every psi form one orthonormal family: a shift with a
    # digit at -2 leaves G_-1, and the shifts of digit -1 form a group, so Gram entry
    # ((i, h), (k, h')) is corr[i, k, h' - h]; where spells the shift's digits at -1 and -2
    corr = family_correlation(*family_spectra(system.phi_hat, system.mask))
    corr[:, :, 0] -= np.eye(p)
    dev, (i, k, d) = _worst(np.abs(corr))
    checks.append(CheckResult.within("gram-orthonormal-family", dev, tol,
                                     f"functions ({i}, {k}), shift ({d}, 0)" if dev else ""))
    return checks


def _worst(devs: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The largest deviation and its index; a nan is the largest."""
    at = np.unravel_index(np.argmax(devs), devs.shape)  # argmax picks the first nan
    return float(devs[at]), tuple(int(i) for i in at)
