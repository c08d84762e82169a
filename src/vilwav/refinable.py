"""Spectra, step functions, and the finite Fourier machinery between them.

The refinable function is built in frequency as its support cosets of the
level -1 annihilator, int64 keys of their digit strings with their values,
and recovered in time as a step function on cells.  Both sides live on a
common digit window, so every integral here is a finite measure-weighted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, CheckResult, MathError, SizeCapError
from .group import char_kernel_apply, check_table_size, digit_characters, digit_table
from .mask import MaskTable, residue_sums_check
from .tree import RootedTree


@dataclass(frozen=True)
class SpectrumTable:
    """Values of a transform on cosets of the level -1 annihilator: distinct int64 keys and their values.

    Key k names the coset whose digits on the window [-1, band) are row k of digit_table(p, band + 1);
    a coset not keyed holds 0.  The refinable function has band M and its p support cosets as keys;
    keys = arange(p^(band + 1)) is a dense table.  Keys past int64 are refused, whatever the size cap.
    """

    p: int
    band: int
    keys: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.band >= 63 or self.p ** (self.band + 1) > np.iinfo(np.int64).max:  # no p**(2**70)
            raise SizeCapError(f"spectrum keys of {self.band + 1} digits at p={self.p} do not fit an int64 key")
        for name, dtype in (("keys", np.int64), ("values", complex)):
            column = np.asarray(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if self.keys.ndim != 1 or self.keys.shape != self.values.shape:
            raise ValueError("expected one value per key")

    def norm2(self) -> float:
        """Squared L2 norm against the character-side measure (coset mass 1/p)."""
        return float((np.abs(self.values) ** 2).sum() / self.p)


@dataclass(frozen=True)
class StepFunction:
    """A step function: support in G_{support_level}, constant on G_{resolution_level} cells.

    Entry k is the value on the cell whose digits over the window
    [support_level, resolution_level) are row k of digit_table(p, width).
    """

    p: int
    support_level: int
    resolution_level: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.resolution_level <= self.support_level:
            raise ValueError("resolution_level must exceed support_level")
        values = np.asarray(self.values, dtype=complex)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.width >= 64 or values.shape != (self.p**self.width,):  # no 2**64 tables
            raise ValueError(f"expected {self.p}^{self.width} cell values")

    @property
    def width(self) -> int:
        return self.resolution_level - self.support_level

    def norm2(self) -> float:
        """Squared L2 norm, cell values against mu-measure p^-resolution."""
        return float((np.abs(self.values) ** 2).sum() * float(self.p) ** -self.resolution_level)


def phi_hat_from_tree(tree: RootedTree, mask: MaskTable) -> SpectrumTable:
    """Spectrum of the refinable function by path products over the tree: one key per vertex.

    Vertex v with root path (0, u_j, ..., v) keys its digit string (v, ..., u_j, 0, ...) as
    key[v] = v + p*key[parent[v]] and holds value[v] = lambda[v + p*parent[v]] * value[parent[v]],
    1 at the root; M + 1 passes over the parent array reach the deepest vertex.  Keys that wrap
    past int64 are refused by SpectrumTable before anything reads them.
    """
    p, M = tree.p, tree.support_exponent
    parent, vertices = np.array(tree.parent), np.arange(p)
    factor = mask.lam[vertices + p * parent]
    factor[0] = 1.0  # the root has no edge
    keys, values = np.zeros(p, dtype=np.int64), np.ones(p, dtype=complex)
    for _ in range(M + 1):
        keys, values = vertices + p * keys[parent], factor * values[parent]
    return SpectrumTable(p, M, keys, values)


def inverse_transform(spec: SpectrumTable) -> StepFunction:
    """Invert a level -1 coset table to a step function on [-1, band), through its dense table."""
    p, w = spec.p, spec.band + 1
    check_table_size(p**w)
    values = np.zeros(p**w, dtype=complex)
    values[spec.keys] = spec.values
    return StepFunction(p, -1, spec.band, char_kernel_apply(values, p, w, +1) / p)


def coset_characters(cosets: np.ndarray, p: int, w: int) -> tuple[np.ndarray, ...]:
    """The characters of level -1 cosets on the cells of [-1, w - 1), as two Kronecker factors.

    Row k of a factor is the Kronecker product of coset k's per-digit
    root-of-unity vectors over the deep (first) or shallow half of its digits.
    A sum over nnz cosets is then one (p^h x nnz) @ (nnz x p^(w-h)) product:
    nnz * p^w multiply-adds against w * p * p^w for the full transform, but
    with rounding (~1e-16) where that gives exact zeros, so build keeps it.
    """
    digits = (cosets[:, None] // p ** np.arange(w - 1, -1, -1)) % p  # deepest digit first
    factors = []
    for half in np.split(digits, [(w + 1) // 2], axis=1):
        rows = np.ones((len(cosets), 1), dtype=complex)
        for column in half.T:
            rows = rows[:, :, None] * digit_characters(p)[column][:, None, :]
            rows = rows.reshape(len(rows), rows.shape[1] * p)  # no -1: there may be no rows
        factors.append(rows)
    return tuple(factors)


def check_elementary(spec: SpectrumTable, tol: float = DEFAULT_TOL) -> CheckResult:
    """Is the support a (1, band)-elementary set?

    Needs exactly p support cosets with distinct lowest digits tiling the
    level-0 annihilator, the trivial coset among them, and at least one
    support coset in every shell between consecutive annihilators.  Values
    are 0 or unimodular: tol bounds each modulus's distance from the nearer
    of the two, and the support is the moduli above 0.5.  The deviation is
    0 or 1, and where says which condition fails.
    """
    p, M = spec.p, spec.band
    mods = np.abs(spec.values)
    support = spec.keys[mods > 0.5]
    residues = len(set((support % p).tolist()))
    digits = support[:, None] // p ** np.arange(M + 1) % p  # row k: the digits of support coset k
    missing = [
        l for l in range(M + 1)
        if not ((digits[:, l] != 0) & (digits[:, l + 1:] == 0).all(axis=1)).any()
    ]
    if np.any(np.minimum(mods, np.abs(mods - 1.0)) > tol):
        why = "values are neither 0 nor unimodular"
    elif len(support) != p or residues != p:
        why = f"support is {len(support)} cosets with {residues} distinct residues, wanted p={p} of each"
    elif 0 not in support:
        why = "trivial coset not in support"
    elif missing:
        why = f"empty shells at levels {missing}"
    else:
        why = ""
    return CheckResult("spectrum-elementary", float(bool(why)), not why, why)


def check_orthonormality_spectral(spec: SpectrumTable, tol: float = DEFAULT_TOL) -> CheckResult:
    """Partial sums of |values|^2 over each lowest-digit residue, key % p; all must be 1."""
    sums = np.bincount(spec.keys % spec.p, np.abs(spec.values) ** 2, minlength=spec.p)
    return residue_sums_check("spectrum-residue-sums", sums, tol)


# -- cell-level machinery: embedding, translation, dilation, the lattice sum --


def embed(f: StepFunction, lo: int, hi: int) -> np.ndarray:
    """Cell values of f on the enclosing window [lo, hi), one per G_hi cell: on f's own window, its table."""
    if lo > f.support_level or hi < f.resolution_level:
        raise ValueError("embedding window must contain the function's window")
    if (lo, hi) == (f.support_level, f.resolution_level):
        return np.asarray(f.values)
    p = f.p
    check_table_size(p ** (hi - lo))
    k = np.arange(p ** (hi - lo))
    low_width = f.support_level - lo
    out = np.asarray(f.values)[(k // p**low_width) % p**f.width]
    if low_width:
        out[k % p**low_width != 0] = 0.0
    return out


def shift_digit(shift: tuple[int, ...], nu: int) -> int:
    """Digit of a translation lattice element at position nu (< 0), little-endian from -1."""
    i = -1 - nu
    if 0 <= i < len(shift):
        return shift[i]
    return 0


def all_shifts(p: int, width: int) -> list[tuple[int, ...]]:
    """Every lattice shift with digits at positions -1 .. -width, canonical order."""
    return [tuple((k // p**i) % p for i in range(width)) for k in range(p**width)]


def translate_dilate(f: StepFunction, j_dilate: int, shift: tuple[int, ...] = ()) -> StepFunction:
    """The function x -> p^(j/2) f(A^j x - h) as a step function.

    `shift` holds the digits of h from position -1 downward.
    """
    p = f.p
    r_new = f.resolution_level + j_dilate
    forced = [mu for mu in range(-len(shift), f.support_level) if shift_digit(shift, mu)]
    s_new = min(forced) + j_dilate if forced else f.support_level + j_dilate
    w = r_new - s_new
    check_table_size(p**w)
    digits = digit_table(p, w)
    ok = np.ones(p**w, dtype=bool)
    for nu in range(s_new, f.support_level + j_dilate):
        ok &= digits[:, nu - s_new] == shift_digit(shift, nu - j_dilate)
    idx = np.zeros(p**w, dtype=np.int64)
    for mu in range(f.support_level, f.resolution_level):
        d = (digits[:, mu + j_dilate - s_new] - shift_digit(shift, mu)) % p
        idx += d * p ** (mu - f.support_level)
    values = np.where(ok, np.asarray(f.values)[idx], 0.0) * dilation_scale(p, j_dilate)
    return StepFunction(p, s_new, r_new, values)


def dilation_scale(p: int, j: int) -> float:
    """The dilation factor p^(j/2), refused where it is no normal double (it would overflow or be 0)."""
    if abs(j) / 2 * math.log2(p) >= 1022:
        raise MathError(f"dilation to level {j} is out of double range at p={p}")
    return float(p) ** (j / 2)


def reverse_digits(table: np.ndarray, p: int, t: int) -> np.ndarray:
    """Reverse the t base-p digits of axis 0: windows put the deepest digit first, shift keys digit -1."""
    axes = (*range(t - 1, -1, -1), *range(t, t + table.ndim - 1))
    return table.reshape((p,) * t + table.shape[1:]).transpose(axes).reshape(table.shape)


def _diff(p: int) -> np.ndarray:
    """diff[m, c] = (m - c) mod p."""
    return (np.arange(p)[:, None] - np.arange(p)[None, :]) % p


def _circulant(k: np.ndarray) -> np.ndarray:
    """The matrix of lattice_sum: row (m, q), column s holds k[q, (m - s) mod p]."""
    return k[:, _diff(k.shape[1])].transpose(1, 0, 2).reshape(-1, k.shape[1])


def lattice_sum(g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """out[r, m, q] = sum_c k[q, c] * g[r, (m - c) mod p].

    The relation phi = sum_j beta_j phi(A x - h_j) on tables: g holds one value per cell or
    coefficient as [rest, lowest digit], k the coefficients as [pinned digits, lowest shift
    digit].  Summed over s = m - c, it is one product with the circulant matrix over all r;
    bank_matrix sets the p filters' circulants side by side, conjugated, as the bank's W.
    """
    r, p = g.shape
    return (g @ _circulant(k).T).reshape(r, p, len(k))


def bank_matrix(filters) -> np.ndarray:
    """The unitary p^2 x p^2 matrix W of one filter-bank level over a tree's filters (beta, each beta_l).

    W[(m, q), (l, c)] = conj k_l[q, (m - c) mod p], k_l = reshape(f_l, (p, p)).T / sqrt(p).
    """
    p = len(filters)
    return np.hstack([_circulant(np.reshape(f, (p, p)).T / math.sqrt(p)).conj() for f in filters])


def lattice_sum_adjoint_k(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint of lattice_sum in k: out[q, c] = sum_{r,m} x[r, m, q] * conj g[r, (m - c) mod p]."""
    r, p = g.shape
    return x.reshape(r * p, -1).T @ g[:, _diff(p)].reshape(r * p, p).conj()


def inner_product(f: StepFunction, g: StepFunction) -> complex:
    """Exact integral of f * conj(g) over the common cell refinement."""
    lo = min(f.support_level, g.support_level)
    hi = max(f.resolution_level, g.resolution_level)
    vf = embed(f, lo, hi)
    vg = embed(g, lo, hi)
    return complex(vf @ vg.conj() * float(f.p) ** -hi)


def translated_cell_matrix(f: StepFunction, shifts, lo: int, hi: int) -> np.ndarray:
    """Rows of cell values of f(x - h) on [lo, hi), one row per shift."""
    p = f.p
    w = hi - lo
    check_table_size(p**w * len(shifts))
    base = embed(f, lo, hi)
    digits = digit_table(p, w)
    powers = p ** np.arange(w, dtype=np.int64)
    hmat = np.array([[shift_digit(h, lo + slot) for slot in range(w)] for h in shifts])
    idx = ((digits[None, :, :] - hmat[:, None, :]) % p) @ powers
    return base[idx]
