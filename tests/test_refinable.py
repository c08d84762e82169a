import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vilwav import oracle, refinable
from vilwav.config import DEFAULT_TOL, MathError, SizeCapError
from vilwav.group import digit_table
from vilwav.mask import MaskTable, mask_from_tree
from vilwav.oracle import forward_transform, gram_matrix, orbit_product, psi_hat, translation_correlation
from vilwav.refinable import (
    SpectrumTable,
    StepFunction,
    all_shifts,
    bank_matrix,
    check_elementary,
    check_orthonormality_spectral,
    embed,
    inner_product,
    inverse_transform,
    lattice_sum,
    lattice_sum_adjoint_k,
    phi_hat_from_tree,
    translate_dilate,
)
from vilwav.transform import CoeffGrid, analyze_level
from vilwav.tree import RootedTree, enumerate_trees, sample_tree
from vilwav.wavelet import build_system, family_spectra, psi_freq

from conftest import dense_table, dense_values

OMEGA3 = np.exp(2j * np.pi / 3)


def build_spectrum(parent, p, phases=None):
    tree = RootedTree.validate(parent, p)
    mask = mask_from_tree(tree, phases)
    return tree, mask, phi_hat_from_tree(tree, mask)


def tree_and_phases(p):
    trees = st.sampled_from(list(enumerate_trees(p)))
    return trees.flatmap(
        lambda t: st.lists(
            st.floats(0.0, 1.0, exclude_max=True), min_size=p - 1, max_size=p - 1
        ).map(lambda turns: (t, dict(zip(t.edges(), turns))))
    )


def test_star_spectrum_all_ones():
    for p in (2, 3, 5, 7):
        _, _, spec = build_spectrum([0] * p, p)
        assert spec.band == 0
        assert np.array_equal(spec.values, np.ones(p, dtype=complex))


def test_chain_spectrum_support():
    _, _, spec = build_spectrum([0, 0, 1], 3)
    assert spec.band == 1 and spec.keys.tolist() == [0, 1, 5]  # one key per vertex
    expected = np.zeros(9, dtype=complex)
    expected[[0, 1, 5]] = 1.0  # digit strings (0,0), (1,0), (2,1)
    assert np.array_equal(dense_values(spec), expected)


def test_tree_b_leaf_entry():
    tree, mask, spec = build_spectrum([0, 3, 3, 0, 5, 0, 2], 7)
    idx = 6 + 7 * 2 + 49 * 3  # digit string (6, 2, 3)
    assert dense_values(spec)[idx] == mask.lam[6 + 7 * 2] * mask.lam[2 + 7 * 3] * mask.lam[3]
    assert abs(dense_values(spec)[idx]) == pytest.approx(1.0)


@given(st.sampled_from([2, 3, 5]).flatmap(tree_and_phases))
def test_path_products_match_orbit_product(tp):
    # two independent routes to the spectrum: tree paths vs mask orbit products
    tree, phases = tp
    mask = mask_from_tree(tree, phases)
    by_path = phi_hat_from_tree(tree, mask)
    by_orbit = orbit_product(mask, tree.support_exponent + 1)
    assert len(by_path.keys) == tree.p and np.abs(dense_values(by_path) - by_orbit).max() < 1e-13


@given(st.sampled_from([3, 5]).flatmap(tree_and_phases))
def test_spectrum_shape_invariants(tp):
    tree, phases = tp
    spec = phi_hat_from_tree(tree, mask_from_tree(tree, phases))
    mods = np.abs(dense_values(spec))
    support = np.flatnonzero(mods > 1e-12)
    assert len(support) == len(spec.keys) == tree.p
    assert np.abs(mods[support] - 1.0).max() < 1e-12
    assert dense_values(spec)[0] == 1.0
    assert sorted(support % tree.p) == list(range(tree.p))
    assert spec.band == tree.support_exponent <= tree.p - 2


def test_chain_phi_closed_form():
    _, _, spec = build_spectrum([0, 0, 1], 3)
    phi = inverse_transform(spec)
    assert phi.support_level == -1 and phi.resolution_level == 1
    for a0 in range(3):
        for am1 in range(3):
            expected = (1 + OMEGA3**am1 + OMEGA3 ** (2 * am1 + a0)) / 3
            assert phi.values[am1 + 3 * a0] == pytest.approx(expected, abs=1e-14)
    assert phi.values[0 + 3 * 0] == pytest.approx(1.0)
    assert phi.values[1 + 3 * 0] == 0.0  # 1 + omega + omega^2, exact by construction


def test_star_phi_is_indicator():
    for p in (2, 3, 5, 7):
        _, _, spec = build_spectrum([0] * p, p)
        phi = inverse_transform(spec)
        expected = np.zeros(p, dtype=complex)
        expected[0] = 1.0
        assert np.array_equal(phi.values, expected)


def test_transform_roundtrip_random_spectra(rng):
    p, M = 5, 2
    for _ in range(5):
        vals = rng.normal(size=p ** (M + 1)) + 1j * rng.normal(size=p ** (M + 1))
        spec = dense_table(p, M, vals)
        back = forward_transform(inverse_transform(spec))
        assert np.abs(back.values - spec.values).max() < 1e-12


@pytest.mark.parametrize("p, band, nnz", [(2, 0, 1), (3, 1, 0), (3, 2, 5), (5, 2, 125), (7, 3, 7)])
def test_sparse_inverse_matches_full_transform(p, band, nnz, rng):
    # psi_freq's coset sum over a random refinable spectrum and a random dense mask
    cosets = rng.choice(p ** (band + 1), size=nnz, replace=False)
    spec = SpectrumTable(p, band, cosets, rng.normal(size=nnz) + 1j * rng.normal(size=nnz))
    mask = MaskTable(p, rng.normal(size=p * p) + 1j * rng.normal(size=p * p))
    sparse = tuple(psi_freq(*family_spectra(spec, mask), band))
    assert len(sparse) == p - 1
    for l, psi in enumerate(sparse, 1):
        full = inverse_transform(psi_hat(spec, mask, l))
        assert (psi.support_level, psi.resolution_level) == (full.support_level, full.resolution_level)
        assert np.abs(psi.values - full.values).max() < 1e-13


def test_sparse_inverse_counts_every_coset_against_the_size_cap(chain3, monkeypatch):
    # each wavelet has 3 cosets over 27 cells: its dense spectrum fits a cap of 80, the coset sum does not
    monkeypatch.setenv("VILWAV_SIZE_CAP", "80")
    inverse_transform(psi_hat(chain3.phi_hat, chain3.mask, 1))
    with pytest.raises(SizeCapError, match="81 entries"):
        next(psi_freq(*family_spectra(chain3.phi_hat, chain3.mask), chain3.M))


def test_sparse_inverse_spreads_a_nan_to_every_cell(chain3):
    values = chain3.phi_hat.values.copy()
    values[1] = np.nan
    lam = chain3.mask.lam.copy()
    lam[np.flatnonzero(lam)[1]] = np.nan
    spec = SpectrumTable(3, 1, chain3.phi_hat.keys, values)
    for spec, mask in [(spec, chain3.mask), (chain3.phi_hat, MaskTable(3, lam))]:
        assert all(np.isnan(psi.values).all() for psi in psi_freq(*family_spectra(spec, mask), 1))


def cnormal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("batch", [(), (1,), (1024,)])
def test_lattice_sums_match_einsum_and_are_adjoint(batch, rng):
    # analysis is lattice_sum's adjoint in g for each filter k_l, checked through analyze_level
    p, r = 5, 25
    tree = RootedTree.validate([0, 0, 1, 2, 3], p)
    system = build_system(tree, {edge: float(rng.uniform()) for edge in tree.edges()})
    ks = [np.reshape(f, (p, p)).T / np.sqrt(p) for f in (system.beta, *system.beta_l)]
    g, x = cnormal(rng, r, p), cnormal(rng, r, p, p, *batch)  # x: [rest, digit -2, digit -1, ...]
    diff = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p  # [m, c] -> m - c
    summed = lattice_sum(g, ks[0])
    assert summed.shape == (r, p, p)
    assert np.abs(summed - np.einsum("qc,rmc->rmq", ks[0], g[:, diff])).max() < 1e-12
    outs = analyze_level(CoeffGrid(p, 0, keys=np.arange(r * p * p), values=x.reshape(-1, *batch)), system)
    for k, out in zip(ks, (outs[0], *outs[1])):
        assert np.array_equal(out.keys, np.arange(r * p)) and out.level == -1
        want = np.einsum("rmq...,qmc->rc...", x, k[:, diff].conj()).reshape(-1, *batch)
        assert np.abs(out.values - want).max() < 1e-12
    x0 = x.reshape(r, p, p, -1)[..., 0]  # adjoint_k takes one signal
    adj_g = outs[0].values.reshape(r, p, -1)[..., 0]
    adj_k = lattice_sum_adjoint_k(x0, g)
    assert np.abs(adj_k - np.einsum("rmq,rmc->qc", x0, g[:, diff].conj())).max() < 1e-10
    inner = np.vdot(x0, summed)  # <lattice_sum(g, k), x>
    assert abs(inner - np.vdot(adj_g, g)) < 1e-9 * abs(inner)
    assert abs(inner - np.vdot(adj_k, ks[0])) < 1e-9 * abs(inner)


@pytest.mark.parametrize("p", [3, 5])
def test_bank_matrix_is_unitary_for_every_tree(p, rng):
    eye = np.eye(p * p)
    for tree in enumerate_trees(p):
        for phases in (None, {edge: float(rng.uniform()) for edge in tree.edges()}):
            system = build_system(tree, phases)
            W = bank_matrix((system.beta, *system.beta_l))
            assert np.abs(W @ W.conj().T - eye).max() < 1e-14, (tree.parent, phases)


def test_forward_requires_support_in_g_minus1():
    f = StepFunction(3, -2, 0, np.ones(9))
    with pytest.raises(ValueError, match="support level -1"):
        forward_transform(f)


@given(st.sampled_from([3, 5]).flatmap(tree_and_phases))
def test_plancherel(tp):
    tree, phases = tp
    spec = phi_hat_from_tree(tree, mask_from_tree(tree, phases))
    phi = inverse_transform(spec)
    assert phi.norm2() == pytest.approx(spec.norm2(), abs=1e-12)
    assert phi.norm2() == pytest.approx(1.0, abs=1e-12)


def test_elementary_chain_and_star():
    for parent in ([0, 0, 1], [0, 0, 0], [0, 2, 0]):
        _, _, spec = build_spectrum(parent, 3)
        assert check_elementary(spec).passed


def test_elementary_failure_modes():
    vals = np.zeros(9, dtype=complex)
    vals[[0, 1, 4]] = 1.0  # residues 0, 1, 1: xi-parts collide
    rep = check_elementary(dense_table(3, 1, vals))
    assert not rep.passed and "residues" in rep.where

    vals2 = np.zeros(9, dtype=complex)
    vals2[[0, 1, 2]] = 1.0  # all in the level-0 annihilator: shell l=1 empty
    rep2 = check_elementary(dense_table(3, 1, vals2))
    assert not rep2.passed and rep2.where == "empty shells at levels [1]"

    vals3 = np.zeros(9, dtype=complex)
    vals3[[3, 1, 5]] = 1.0  # trivial coset missing; residues and shells fine
    rep3 = check_elementary(dense_table(3, 1, vals3))
    assert not rep3.passed and rep3.where == "trivial coset not in support"

    vals4 = np.zeros(9, dtype=complex)
    vals4[[0, 1, 5]] = [1.0, 0.5, 1.0]
    assert check_elementary(dense_table(3, 1, vals4)).where == "values are neither 0 nor unimodular"

    _, _, spec = build_spectrum([0, 0, 1], 3)
    vals5 = dense_values(spec)
    vals5[np.flatnonzero(vals5 == 0)[0]] = 1e-9  # off the support, but off 0 by more than tol
    spec5 = dense_table(3, spec.band, vals5)
    assert not check_elementary(spec5).passed and check_elementary(spec5, tol=1e-6).passed


def elementary_by_digit_table(spec, tol):
    """check_elementary's verdict and why, with the shells read off a digit table: row k holds
    support coset k's digits 0 .. band, and level l is a shell when some row's highest non-zero digit is l."""
    p, M = spec.p, spec.band
    mods = np.abs(spec.values)
    support = spec.keys[mods > 0.5]
    residues = len(set((support % p).tolist()))
    digits = support[:, None] // p ** np.arange(M + 1) % p
    missing = [l for l in range(M + 1) if not ((digits[:, l] != 0) & (digits[:, l + 1:] == 0).all(axis=1)).any()]
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
    return not why, why


@st.composite
def elementary_candidates(draw):
    """A SpectrumTable near the elementary ones, and a tol: a tree's phi_hat or p keys of distinct residues or
    any keys, shifted past p^(band + 1) or not, key 0 put in or taken out, moduli near 0, 0.5 and 1."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    how = draw(st.sampled_from(["tree", "residues", "any"]))
    if how == "tree":
        spec = phi_hat_from_tree(tree := sample_tree(p, np.random.default_rng(draw(st.integers(0, 999)))),
                                 mask_from_tree(tree))
        band, keys = spec.band, spec.keys.tolist()
    else:
        band = draw(st.integers(0, 3))
        key = st.integers(0, p ** (band + 1) - 1)
        keys = draw(st.lists(key, min_size=1, max_size=p + 2, unique=True))
        if how == "residues":  # one key per residue, each keeping its digits above the lowest
            keys = [r + p * (k // p) for r, k in zip(draw(st.permutations(range(p))), keys)]
    keys = [k + p ** (band + 1) * draw(st.sampled_from([0, 0, 1, p + 1])) for k in keys]  # digits past the band
    if draw(st.booleans()):  # key 0 in place of the residue-0 keys, or no key 0
        keys = [0, *(k for k in keys if k % p)] if draw(st.booleans()) else [k for k in keys if k]
    keys = list(dict.fromkeys(keys))
    moduli = st.sampled_from([1.0, 0.0, 0.5, 0.5 + 1e-9, 0.5 - 1e-9, 1e-13, 2e-12, 1 + 2e-12, 1 - 1e-13])
    clean = draw(st.booleans())  # else each modulus is drawn
    values = [(1.0 if clean else draw(moduli)) * np.exp(2j * np.pi * draw(st.floats(0, 1))) for _ in keys]
    return SpectrumTable(p, band, keys, values), draw(st.sampled_from([DEFAULT_TOL, 1e-9, 0.6]))


@given(elementary_candidates())
def test_elementary_shells_by_searchsorted_match_the_digit_table(candidate):
    spec, tol = candidate
    report = check_elementary(spec, tol)
    assert (report.passed, report.where) == elementary_by_digit_table(spec, tol)
    assert report.max_deviation == float(not report.passed)


def test_spectral_ortho_report():
    _, _, spec = build_spectrum([0, 0, 1], 3)
    rep = check_orthonormality_spectral(spec)
    assert rep.passed and rep.max_deviation == 0.0
    # zero one entry -> one residue sum drops to 0
    vals = dense_values(spec)
    vals[1] = 0.0
    assert check_orthonormality_spectral(dense_table(3, 1, vals)).max_deviation == 1.0
    # duplicate a unit entry at a used residue -> sum 2
    vals2 = dense_values(spec)
    vals2[4] = 1.0
    assert check_orthonormality_spectral(dense_table(3, 1, vals2)).max_deviation == 1.0


def test_embed_places_cells():
    f = StepFunction(3, 0, 1, np.array([1.0, 2.0, 3.0], dtype=complex))
    wide = embed(f, -1, 1)
    # support forces the digit at -1 to zero; cell (0, a_0) carries value f[a_0]
    expected = np.zeros(9, dtype=complex)
    expected[[0, 3, 6]] = [1.0, 2.0, 3.0]
    assert np.array_equal(wide, expected)
    with pytest.raises(ValueError, match="window"):
        embed(f, 0, 0)


def test_translate_is_permutation():
    f = StepFunction(3, -1, 1, np.arange(9, dtype=complex))
    g = translate_dilate(f, 0, (1, 2))
    h = translate_dilate(g, 0, (2, 1))  # add the inverse shift
    assert np.array_equal(embed(h, -2, 1), embed(f, -2, 1))
    assert g.norm2() == pytest.approx(f.norm2())


def test_dilation_normalization():
    f = StepFunction(3, -1, 0, np.array([1.0, 0, 0], dtype=complex))
    g = translate_dilate(f, 1, ())
    assert g.norm2() == pytest.approx(f.norm2())


def test_dilation_out_of_double_range_is_refused():
    f = StepFunction(3, -1, 0, np.array([1.0, 0, 0], dtype=complex))
    assert translate_dilate(f, 600, ()).norm2() == pytest.approx(f.norm2())
    for level in (5000, -5000):
        with pytest.raises(MathError, match=f"level {level} "):
            translate_dilate(f, level, ())


def test_inner_product_matches_norm():
    f = StepFunction(3, -1, 1, np.arange(9, dtype=complex))
    assert inner_product(f, f) == pytest.approx(f.norm2())


def test_gram_star_identity():
    _, _, spec = build_spectrum([0, 0, 0], 3)
    phi = inverse_transform(spec)
    gram = gram_matrix([phi], all_shifts(3, 2))
    assert np.abs(gram - np.eye(9)).max() == 0.0


@given(st.sampled_from([3, 5]).flatmap(tree_and_phases))
def test_gram_phi_identity(tp):
    tree, phases = tp
    phi = inverse_transform(phi_hat_from_tree(tree, mask_from_tree(tree, phases)))
    shifts = all_shifts(tree.p, 2)
    gram = gram_matrix([phi], shifts)
    assert np.abs(gram - np.eye(len(shifts))).max() < 1e-12


def test_gram_phi_identity_wider_shifts():
    # spot check over the width-3 shift set: wider shifts only add disjoint translates
    tree = RootedTree.validate([0, 0, 1], 3)
    phi = inverse_transform(phi_hat_from_tree(tree, mask_from_tree(tree)))
    shifts = all_shifts(3, 3)
    gram = gram_matrix([phi], shifts)
    assert np.abs(gram - np.eye(27)).max() < 1e-12


def test_huge_declared_width_is_refused_without_computing_p_to_the_width():
    # a file can declare any level; p**(2**70) would never finish
    with pytest.raises(ValueError, match=r"expected 3\^"):
        StepFunction(3, -1, 2**70, np.zeros(27))
    with pytest.raises(SizeCapError, match="int64"):
        SpectrumTable(3, 2**70, np.arange(9), np.zeros(9))


def assert_correlation_is_dense_gram(funcs, width):
    # the correlation holds the shifts of digit -1; the others, which have a
    # digit at -2 or below, are filled with zeros for the dense Gram to check
    p, n, shifts = funcs[0].p, len(funcs), funcs[0].p ** width
    corr = np.zeros((n, n, shifts), dtype=complex)
    corr[:, :, :p] = translation_correlation(funcs)
    digits = digit_table(p, width)
    hprime_minus_h = ((digits[None, :, :] - digits[:, None, :]) % p) @ p ** np.arange(width)
    by_shift = corr[:, :, hprime_minus_h].transpose(0, 2, 1, 3).reshape(n * shifts, n * shifts)
    assert np.abs(gram_matrix(funcs, all_shifts(p, width)) - by_shift).max() < 1e-14
    return corr


@pytest.mark.parametrize(
    "parent, widths",
    [(t.parent, (2, 3)) for t in enumerate_trees(3)] + [((0, 0, 1, 2, 3), (2,))],
)
def test_translation_correlation_matches_dense_gram(parent, widths, rng, monkeypatch):
    # phi and psi differ in resolution level, and the noisy psi makes the
    # family non-orthonormal.  Chunks of 18 cells sum one or two values of
    # the digits [0, hi) at a time (p=3: the last chunk is cut short).
    tree = RootedTree.validate(parent, len(parent))
    system = build_system(tree, dict(zip(tree.edges(), rng.uniform(size=tree.p - 1))))
    p, psi = system.p, system.psi[0]
    noisy = StepFunction(p, -1, psi.resolution_level, psi.values + 1e-3 * rng.normal(size=psi.values.shape))
    for width, chunk in itertools.product(widths, (oracle.GRAM_CHUNK_CELLS, 18)):
        monkeypatch.setattr(oracle, "GRAM_CHUNK_CELLS", chunk)
        corr = assert_correlation_is_dense_gram((system.phi,) + system.psi, width)
        ideal = np.zeros_like(corr)
        ideal[:, :, 0] = np.eye(p)
        assert np.abs(corr - ideal).max() < 1e-12
        corr = assert_correlation_is_dense_gram((system.phi, noisy), width)
        assert np.abs(corr[1, 1, 0] - noisy.norm2()) < 1e-14 and abs(corr[1, 1, 0] - 1) > 1e-7


def test_translation_correlation_refuses_functions_outside_g_minus_1(rng):
    # a function supported in G_-3 has translates the one-digit shifts miss
    p = 3
    phi = inverse_transform(build_spectrum((0, 0, 1), p)[2])
    wide = rng.normal(size=p**3) + 1j * rng.normal(size=p**3)
    wide = StepFunction(p, -3, 0, wide / np.linalg.norm(wide))
    with pytest.raises(ValueError, match="G_-1"):
        translation_correlation((phi, wide))
