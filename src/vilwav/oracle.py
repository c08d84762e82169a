"""Dense reference routes that re-verify the production ones; only the tests call them.

The orbit-product spectrum, the forward transform (a dense keyed table),
the dense Gram matrix and the cell-table translation correlation, the dense
beta solve, the wavelet spectrum on all p keys over each key of phi_hat, and
the refinement identity and the two routes to each wavelet on cell tables.
No module of the package imports this one, so `import vilwav` neither loads
nor compiles it.
"""

from __future__ import annotations

import numpy as np

from .group import char_kernel_apply, check_table_size, digit_table
from .mask import MaskTable
from .refinable import SpectrumTable, StepFunction, embed, translated_cell_matrix
from .wavelet import _beta_system, assemble_refinement_sum, family_spectra, psi_freq, shifted_masks


def orbit_product(mask: MaskTable, w: int) -> np.ndarray:
    """prod_k lambda[d_k + p*d_(k+1)] for every digit string d over a width-w window.

    The digit above the window is zero; the remaining factors along the
    dilation orbit are lambda_0 = 1.
    """
    p = mask.p
    digits = digit_table(p, w)
    prod = np.ones(p**w, dtype=complex)
    for k in range(w):
        hi = digits[:, k + 1] if k + 1 < w else 0
        prod *= mask.lam[digits[:, k] + p * hi]
    return prod


def forward_transform(f: StepFunction) -> SpectrumTable:
    """Fourier transform of a step function supported in G_{-1}."""
    if f.support_level != -1:
        raise ValueError("forward_transform expects support level -1")
    p, w = f.p, f.width
    values = char_kernel_apply(np.asarray(f.values), p, w, -1) * float(p) ** -f.resolution_level
    return SpectrumTable(p, f.resolution_level, np.arange(p**w), values)


def gram_matrix(funcs, shifts) -> np.ndarray:
    """Dense oracle: Gram matrix of the translates of every function over the given shifts.

    Rows and columns run function-major: block (i, k) pairs the translates
    of funcs[i] with those of funcs[k].  translation_correlation gives the
    same entries without a row per translate, and wavelet.family_correlation
    without a cell table.
    """
    lo = min(min(f.support_level for f in funcs), -max((len(h) for h in shifts), default=0))
    hi = max(f.resolution_level for f in funcs)
    family = np.vstack([translated_cell_matrix(f, shifts, lo, hi) for f in funcs])
    return family @ family.conj().T * float(funcs[0].p) ** -hi


# Cells of all functions in one chunk of translation_correlation: 512 kB, a cache-sized working set.
GRAM_CHUNK_CELLS = 2**15


def translation_correlation(funcs) -> np.ndarray:
    """c[i, k, d] = <f_i, f_k(x - d)> for the p shifts d of one digit, at position -1.

    The functions lie in G_-1, and a shift with a digit at -2 or below moves
    G_-1 off itself, so those entries are zero and are not computed.
    Translation is a carry-free digit shift, so the Gram entry of f_i(x - h)
    against f_k(x - h') is c[i, k, h' - h].  Each function is transformed once
    over the shift digit; a pair's spectrum product, summed over the other
    digits in chunks of the digits [0, hi), inverts to its correlation.
    """
    if any(f.support_level != -1 for f in funcs):
        raise ValueError("the Gram correlation takes functions supported in G_-1")
    n, p = len(funcs), funcs[0].p
    hi = max(f.resolution_level for f in funcs)
    check_table_size(n * p ** (hi + 1))
    tables = [embed(f, -1, hi) for f in funcs]
    rows = max(1, GRAM_CHUNK_CELLS // (n * p))  # values of the digits [0, hi) per chunk
    prod = np.zeros((p, n, n), dtype=complex)
    for top in range(0, p**hi, rows):
        # cells[i, a, s] is f_i on digits [0, hi) a and shift digit s
        cells = np.stack([table[top * p:(top + rows) * p].reshape(-1, p) for table in tables])
        spec = char_kernel_apply(cells.transpose(2, 0, 1), p, 1, -1)
        prod += spec @ spec.conj().transpose(0, 2, 1)
    return (char_kernel_apply(prod, p, 1, +1) * float(p) ** -(hi + 1)).transpose(1, 2, 0)


def solve_beta_dense(mask: MaskTable) -> np.ndarray:
    """Generic dense solve of the same system; independent check of solve_beta."""
    return np.linalg.solve(_beta_system(mask.p), mask.lam)


def psi_hat(phi_hat_table: SpectrumTable, mask: MaskTable, l: int) -> SpectrumTable:
    """Wavelet spectrum: shifted mask times the dilated refinable spectrum.

    Each key s of phi_hat gives the p keys a + p*s, with value phi_hat[s] * m_l[s mod p, a].
    l = 0 reproduces the spectrum of the refinable function itself (the
    frequency-domain refinement identity), band grows by one either way.
    """
    p, s = mask.p, phi_hat_table.keys
    values = phi_hat_table.values[:, None] * shifted_masks(mask)[l][s % p]
    return SpectrumTable(p, phi_hat_table.band + 1, (np.arange(p) + p * s[:, None]).ravel(), values.ravel())


@np.errstate(over="ignore", invalid="ignore")
def cell_identities(system) -> tuple[float, float]:
    """The worst cell of the refinement identity and of the two routes to the wavelets, on cell tables.

    The refinement sum of phi with beta against phi one level finer, and each time-route psi
    table against psi_freq's inversion of the family's spectra: verify's refinement-cosets and
    psi-two-route read the same faults on cosets, about p times larger.  A nan is the worst.
    """
    refined = assemble_refinement_sum(system.phi, system.beta)
    refinement = np.abs(refined.values - embed(system.phi, -1, system.M + 1)).max()
    freq = psi_freq(*family_spectra(system.phi_hat, system.mask), system.M)
    two_route = [np.abs(f.values - t.values).max() for f, t in zip(freq, system.psi, strict=True)]
    return float(refinement), float(np.max(two_route))
