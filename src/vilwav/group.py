"""Exact arithmetic on the p-adic Vilenkin group over finite digit windows.

Group points and characters are both finite base-p digit strings.  A point
x = sum a_nu * g_nu carries its digits at positions nu; a character is a
product of Rademacher powers r_nu^alpha_nu and carries the exponents.  A
point lies in the subgroup G_n iff its digits below position n vanish; a
character lies in the annihilator of G_n iff its digits at positions >= n
vanish.  Canonical table order is little-endian in position: the lowest
position of a window is the least significant base-p digit.  Points and
characters exist only as such table indices: digit_table gives the digits
of every index and char_kernel_apply applies the pairing between the two.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .config import SizeCapError, size_cap


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_table_size(count: int, what: str = "table", unit: str = "entries") -> None:
    """Refuse `what`, count `unit` in all (table entries by default), when that exceeds the size cap."""
    cap = size_cap()
    if count > cap:
        raise SizeCapError(f"{what} of {_count(count)} {unit} exceeds cap {cap}")


def _count(n: int) -> str:
    """n in full, or past 18 digits the power of ten below it: p^width of a file's
    widest key can have more digits than str() converts or one error line should hold."""
    if n < 10**18:
        return str(n)
    exp = int(math.log10(n))  # off by at most one either way
    exp += (10 ** (exp + 1) <= n) - (10**exp > n)
    return f"at least 10^{exp}"


@lru_cache(maxsize=None)
def unit_roots(p: int) -> np.ndarray:
    """The p complex p-th roots of unity, omega^k = exp(2 pi i k / p)."""
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    roots[0] = 1.0
    if p % 2 == 0:
        roots[p // 2] = -1.0  # exp(i pi) in floats carries ~1e-16 imaginary dirt
    roots.setflags(write=False)
    return roots


@lru_cache(maxsize=None)
def digit_characters(p: int) -> np.ndarray:
    """(p, p) array: row alpha holds the one-digit character omega^(alpha * a) over a = 0 .. p-1."""
    table = unit_roots(p)[np.outer(np.arange(p), np.arange(p)) % p]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def digit_table(p: int, w: int) -> np.ndarray:
    """(p^w, w) array: row k holds the base-p digits of k, least significant first."""
    check_table_size(p**w)
    k = np.arange(p**w)
    return (k[:, None] // p ** np.arange(w)[None, :]) % p


def char_kernel_apply(values: np.ndarray, p: int, w: int, sign: int) -> np.ndarray:
    """Apply the rank-w character kernel omega^(sign * <alpha, a>) to a table.

    Output index alpha, input index a, both canonical over width-w windows:
    out[alpha] = sum_a values[a] * omega^(sign * sum_slot alpha_slot * a_slot).

    Each axis pass subtracts the slot-0 value before multiplying the nonzero
    output rows, which is exact (the dropped term is a full root-of-unity sum,
    identically zero) and makes constant fibres transform to exact zeros.
    The table runs along the first axis; any further axes are a batch, each
    transformed alike.
    """
    if values.shape[:1] != (p**w,):
        raise ValueError(f"expected a table of length {p**w} along the first axis")
    kernel = digit_characters(p) if sign >= 0 else digit_characters(p).conj()
    arr = values.astype(complex)
    for axis in range(w):
        view = arr.reshape(p ** (w - 1 - axis), p, -1)  # digit `axis` from the top in the middle
        arr = np.concatenate([view.sum(axis=1, keepdims=True), kernel[1:] @ (view - view[:, :1])], axis=1)
    return arr.reshape(values.shape)
