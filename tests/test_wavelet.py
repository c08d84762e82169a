import ast
import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vilwav import group, mask, refinable, serialize, wavelet
from vilwav.config import DEFAULT_TOL, SizeCapError
from vilwav.mask import MaskTable, mask_from_tree
from vilwav.oracle import cell_identities, gram_matrix, psi_hat, solve_beta_dense, translation_correlation
from vilwav.refinable import (
    all_shifts,
    inner_product,
    inverse_transform,
)
from vilwav.tree import RootedTree, enumerate_trees
from vilwav.wavelet import (
    WaveletSystem,
    assemble_refinement_sum,
    beta_residual,
    beta_shifted,
    build_system,
    family_spectra,
    psi_freq,
    psi_time,
    shifted_mask_checks,
    shifted_masks,
    solve_beta,
    verify_wavelet_system,
)

from conftest import (
    P11_M5_PARENT, TREE7_A_PARENT, TREE7_B_PARENT, dense_gram_deviation, dense_values, family_functions,
    tamper_family, tampered,
)

OMEGA3 = np.exp(2j * np.pi / 3)


def tree_and_phases(p):
    trees = st.sampled_from(list(enumerate_trees(p)))
    return trees.flatmap(
        lambda t: st.lists(
            st.floats(0.0, 1.0, exclude_max=True), min_size=p - 1, max_size=p - 1
        ).map(lambda turns: (t, dict(zip(t.edges(), turns))))
    )


def test_star_beta():
    for p in (2, 3, 5, 7):
        beta = solve_beta(mask_from_tree(RootedTree.validate([0] * p, p)))
        expected = np.zeros(p * p, dtype=complex)
        expected[:p] = 1.0  # the a_-2 = 0 block
        assert np.abs(beta - expected).max() < 1e-14


def test_chain_beta_closed_form():
    beta = solve_beta(mask_from_tree(RootedTree.validate([0, 0, 1], 3)))
    for j in range(9):
        a_m1, a_m2 = j % 3, j // 3
        expected = (1 + OMEGA3**a_m2 + OMEGA3 ** (2 * a_m2 + a_m1)) / 3
        assert beta[j] == pytest.approx(expected, abs=1e-14)
    assert beta[0] == pytest.approx(1.0)
    assert beta[3] == 0.0
    assert beta[1] == pytest.approx((2 + OMEGA3) / 3)


def test_beta_system_is_cached_read_only():
    system = wavelet._beta_system(5)
    assert wavelet._beta_system(5) is system and not system.flags.writeable


@given(st.sampled_from([2, 3, 5]).flatmap(tree_and_phases))
def test_solve_beta_matches_dense_solve(tp):
    tree, phases = tp
    mask = mask_from_tree(tree, phases)
    assert np.abs(solve_beta(mask) - solve_beta_dense(mask)).max() < 1e-12


@given(st.sampled_from([2, 3, 5]).flatmap(tree_and_phases))
def test_beta_residual_and_energy(tp):
    tree, phases = tp
    mask = mask_from_tree(tree, phases)
    beta = solve_beta(mask)
    assert beta_residual(mask, beta).max_deviation < 1e-12
    assert (np.abs(beta) ** 2).sum() == pytest.approx(tree.p, abs=1e-12)


def test_beta_shifted_star():
    beta = solve_beta(mask_from_tree(RootedTree.validate([0, 0, 0], 3)))
    b1 = beta_shifted(beta, 1, 3)
    expected = np.zeros(9, dtype=complex)
    expected[:3] = [1.0, OMEGA3, OMEGA3**2]
    assert np.abs(b1 - expected).max() < 1e-14


def test_beta_shifted_fixes_zero_residue():
    beta = solve_beta(mask_from_tree(RootedTree.validate([0, 0, 1], 3)))
    for l in (1, 2):
        bl = beta_shifted(beta, l, 3)
        assert np.array_equal(bl[::3], beta[::3])  # a_-1 = 0 entries unchanged
        assert (np.abs(bl) ** 2).sum() == pytest.approx((np.abs(beta) ** 2).sum())


def test_beta_shifted_range():
    beta = np.ones(9, dtype=complex)
    with pytest.raises(ValueError, match="out of range"):
        beta_shifted(beta, 0, 3)
    with pytest.raises(ValueError, match="out of range"):
        beta_shifted(beta, 3, 3)


def test_refinement_identity_chain(chain3):
    from vilwav.refinable import embed

    refined = assemble_refinement_sum(chain3.phi, chain3.beta)
    assert np.abs(refined.values - embed(chain3.phi, -1, chain3.M + 1)).max() < 1e-13


@pytest.mark.parametrize("parent", [[0, 0, 1], [0, 0, 1, 1, 3]])
def test_refinement_sum_matches_dilated_translates(parent, rng):
    # the gather against its definition: sum_j c_j p^(-1/2) (translate_dilate(phi, 1, h_j))
    from vilwav.refinable import embed, translate_dilate

    system = build_system(RootedTree.validate(parent, len(parent)))
    p, M = system.p, system.M
    coeffs = rng.normal(size=p * p) + 1j * rng.normal(size=p * p)
    direct = sum(
        c * embed(translate_dilate(system.phi, 1, (j % p, j // p)), -1, M + 1) / np.sqrt(p)
        for j, c in enumerate(coeffs)
    )
    refined = assemble_refinement_sum(system.phi, coeffs)
    assert (refined.support_level, refined.resolution_level) == (-1, M + 1)
    assert np.abs(refined.values - direct).max() < 1e-13


def test_refinement_sum_requires_support_level_minus1(chain3):
    from vilwav.refinable import StepFunction

    with pytest.raises(ValueError, match="support level -1"):
        assemble_refinement_sum(StepFunction(3, 0, 2, np.ones(9)), chain3.beta)


def test_refinement_sum_respects_size_cap(monkeypatch):
    # phi of the chain has 9 cells, its refinement sum 27; build makes neither, psi needs both
    monkeypatch.setenv("VILWAV_SIZE_CAP", "20")
    system = build_system(RootedTree.validate([0, 0, 1], 3))
    with pytest.raises(SizeCapError):
        system.psi


def test_build_serialize_and_spectral_verify_build_no_table(no_tables):
    system = build_system(RootedTree.validate([0, 0, 1, 2, 3], 5), {(0, 1): 0.3})
    back = serialize.system_from_dict(serialize.system_to_dict(system))
    for s in (system, back):
        assert all(c.passed for c in verify_wavelet_system(s, spectral_only=True))
        assert "phi=" not in repr(s) and "psi=" not in repr(s)
    with pytest.raises(AssertionError, match="was built"):
        back.psi


# The benchmark's deep7 trees: heights 2 to 6 at p = 7.
DEEP7 = [(0,) * 7, (0, 3, 3, 0, 5, 0, 4), (0, 3, 3, 0, 5, 0, 2), (0, 0, 1, 2, 3, 0, 0), (0, 0, 1, 2, 3, 4, 0)]


def test_tables_read_later_are_the_eager_construction():
    rng = np.random.default_rng(11)
    trees = [*enumerate_trees(3), *enumerate_trees(5), *(RootedTree.validate(t, 7) for t in DEEP7)]
    for tree in trees:
        system = build_system(tree, {e: float(rng.uniform()) for e in tree.edges()})
        phi = inverse_transform(system.phi_hat)
        psi = [psi_time(phi, beta_shifted(system.beta, l, tree.p)) for l in range(1, tree.p)]
        for lazy, eager in zip((system.phi, *system.psi), (phi, *psi), strict=True):
            assert (lazy.support_level, lazy.resolution_level) == (eager.support_level, eager.resolution_level)
            assert np.array_equal(lazy.values, eager.values)
        assert system.phi is system.phi and system.psi is system.psi  # built once, then kept


def test_replace_builds_no_table(no_tables):
    # replace reads the fields it is not given; phi and psi are none of them
    system = build_system(RootedTree.validate(P11_M5_PARENT, 11))
    assert dataclasses.replace(system, mask=system.mask).M == 5


def test_a_system_is_its_tree_and_mask():
    assert [f.name for f in dataclasses.fields(WaveletSystem) if f.init] == ["tree", "mask"]


def test_package_exports_no_oracle():
    import vilwav

    assert not {"forward_transform", "gram_matrix", "psi_time"} & set(vilwav.__all__)
    assert all(hasattr(vilwav, name) for name in vilwav.__all__)


def test_no_package_module_imports_the_oracles():
    package = Path(wavelet.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{a.name}" for a in node.names] + [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            importers += [f"{path.name}:{node.lineno}" for n in names if "oracle" in n.split(".")]
    assert importers == []


def test_importing_the_package_leaves_the_oracles_unloaded():
    modules = ["cli", "config", "group", "mask", "refinable", "serialize", "transform", "tree", "wavelet"]
    code = "import sys, vilwav\n" + "".join(f"import vilwav.{m}\n" for m in modules)
    code += "print('vilwav.oracle' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_full_verify_builds_the_family_spectra_once(chain3, monkeypatch):
    # psi-two-route and the Gram check read the same family
    handed = tamper_family(monkeypatch, lambda keys, table: None)
    checks = verify_wavelet_system(chain3)
    assert len(handed) == 1 and all(c.passed for c in checks)


def test_refinement_cosets_fail_on_the_last_coset_alone():
    # a phase turns the deepest leaf's coset by 1e-6 and keeps every modulus and the Gram,
    # so only the identity sees it
    system = build_system(RootedTree.validate([0, 0, 1, 2, 3], 5))
    spec = system.phi_hat
    last = int(np.argmax(spec.keys))
    values = spec.values.copy()
    values[last] *= np.exp(2j * np.arcsin(5e-7))  # |e^(it) - 1| = 2 sin(t / 2)
    bent = tampered(system, phi_hat=dataclasses.replace(spec, values=values))
    checks = {c.name: c for c in verify_wavelet_system(bent)}
    assert [name for name, c in checks.items() if not c.passed] == ["refinement-cosets"]
    assert checks["refinement-cosets"].max_deviation == pytest.approx(1e-6, rel=1e-6)
    assert checks["refinement-cosets"].where == f"coset {spec.keys[last]}"


def test_tampered_beta_fails_the_residual_and_the_energy(chain3):
    # a mask that passes mask-row-sums fixes sum |beta|^2 = p (the beta system is unitary),
    # so no tampered mask fails beta-energy alone: beta itself is tampered, and the mask it
    # implies is the refinement identity's m0
    checks = verify_wavelet_system(tampered(chain3, beta=chain3.beta * 1.01), spectral_only=True)
    assert {c.name for c in checks if not c.passed} == {"beta-residual", "beta-energy", "refinement-cosets"}


def test_full_verify_counts_the_family_spectra_before_building_them(no_tables, monkeypatch):
    # the p = 3 chain's family is 3 functions on 9 cosets, the largest table full verify holds
    system = build_system(RootedTree.validate([0, 0, 1], 3))
    monkeypatch.setenv("VILWAV_SIZE_CAP", "26")
    with pytest.raises(SizeCapError, match="the family's spectra of 27 entries exceeds cap 26"):
        verify_wavelet_system(system)
    assert len(verify_wavelet_system(system, spectral_only=True)) == 8
    monkeypatch.setenv("VILWAV_SIZE_CAP", "27")
    assert all(c.passed for c in verify_wavelet_system(system))


def test_full_verify_runs_no_cell_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell route was called")

    for module, names in ((refinable, ("inverse_transform", "embed")),
                          (wavelet, ("inverse_transform", "assemble_refinement_sum", "psi_freq"))):
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    rng = np.random.default_rng(3)
    for parent in ([0, 0, 1], [0, 0, 1, 2, 3], TREE7_A_PARENT, (0, 0, 1, 2, 3, 4, 5)):
        tree = RootedTree.validate(parent, len(parent))
        checks = verify_wavelet_system(build_system(tree, {e: float(rng.uniform()) for e in tree.edges()}))
        assert [c.name for c in checks] == VERIFY_CHECKS and all(c.passed for c in checks)


def test_spectral_verify_reads_no_digit_table(monkeypatch):
    # at p = 11, M = 5 a digit table over phi_hat's window would be 85 MB, kept by its cache;
    # at the p = 11 and p = 13 chains (M = 9, 11) it would pass the cap, and phi_hat is p keys
    def refuse(*args):
        raise AssertionError("digit_table called")

    for module in (group, mask, refinable):  # raising=False: a module need not bind it
        monkeypatch.setattr(module, "digit_table", refuse, raising=False)
    for p, parent in [(11, P11_M5_PARENT), (11, (0, *range(10))), (13, (0, *range(12)))]:
        system = build_system(RootedTree.validate(parent, p))
        checks = verify_wavelet_system(system, spectral_only=True)
        assert len(system.phi_hat.keys) == p
        assert len(checks) == 8 and all(c.passed for c in checks)


@pytest.fixture(scope="module")
def chain7():
    # height 7, M = 5: the deepest tree at p = 7
    return build_system(RootedTree.validate([0, 0, 1, 2, 3, 4, 5], 7))


def test_p7_chain_refinement_and_two_route(chain7):
    from vilwav.refinable import embed

    system = chain7
    assert system.M == 5
    refined = assemble_refinement_sum(system.phi, system.beta)
    assert np.abs(refined.values - embed(system.phi, -1, system.M + 1)).max() < 1e-12
    freqs = tuple(psi_freq(*family_spectra(system.phi_hat, system.mask), system.M))
    assert len(freqs) == 6
    for l, freq in enumerate(freqs, 1):
        assert np.abs(freq.values - system.psi[l - 1].values).max() < 1e-12


def test_p7_chain_gram_correlation_stays_below_its_input_size(chain7):
    # the correlation is summed over chunks, not over n full-window copies
    funcs = (chain7.phi,) + chain7.psi
    tracemalloc.start()
    try:
        translation_correlation(funcs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(f.values.nbytes for f in funcs)  # 81 MB


def test_p7_chain_verify_holds_one_frequency_route_wavelet_at_a_time(chain7):
    # with the tables already read, verify's own peak stays below the p - 1 wavelets it compares
    held = sum(f.values.nbytes for f in chain7.psi)  # 79 MB
    tracemalloc.start()
    try:
        checks = verify_wavelet_system(chain7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak < held


def test_p7_chain_full_verify_under_default_cap(chain7, monkeypatch):
    monkeypatch.delenv("VILWAV_SIZE_CAP", raising=False)
    checks = verify_wavelet_system(chain7)
    assert len(checks) == 10
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def assert_psi_freq_is_the_full_inverse(system):
    for l, freq in enumerate(psi_freq(*family_spectra(system.phi_hat, system.mask), system.M), 1):
        full = inverse_transform(psi_hat(system.phi_hat, system.mask, l))
        assert np.abs(freq.values - full.values).max() < 1e-13


@pytest.mark.parametrize("p", [2, 3, 5])
def test_psi_freq_matches_the_full_inverse_transform(p):
    rng = np.random.default_rng(p)
    for tree in enumerate_trees(p):
        assert_psi_freq_is_the_full_inverse(
            build_system(tree, {e: float(rng.uniform()) for e in tree.edges()})
        )


def test_psi_freq_matches_the_full_inverse_transform_p7_chain(chain7):
    assert_psi_freq_is_the_full_inverse(chain7)


def test_psi_freq_runs_no_full_transform(chain3, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1:3])
        return group.char_kernel_apply(*args, **kwargs)

    for module in (refinable, wavelet):
        monkeypatch.setattr(module, "char_kernel_apply", spy)
    inverse_transform(chain3.phi_hat)
    assert calls == [(3, 2)]  # the spy sees the full transform
    assert len(tuple(psi_freq(*family_spectra(chain3.phi_hat, chain3.mask), chain3.M))) == 2
    assert calls == [(3, 2)]


# Three p=7 chains (height 7, M = 5, the deepest trees at p = 7), with seeded phases.
P7_CHAINS = [(0, 2, 3, 4, 5, 6, 0), (0, 3, 5, 0, 6, 1, 2), (0, 6, 0, 1, 2, 3, 4)]


@pytest.mark.parametrize("parent", P7_CHAINS)
def test_p7_chains_pass_full_verification(parent):
    tree = RootedTree.validate(parent, 7)
    assert tree.height() == 7 and tree.support_exponent == 5
    rng = np.random.default_rng(sum(parent))
    checks = verify_wavelet_system(build_system(tree, {e: float(rng.uniform()) for e in tree.edges()}))
    assert [c.name for c in checks] == VERIFY_CHECKS
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_corrupted_beta_breaks_refinement(chain3):
    from vilwav.refinable import embed

    bad = chain3.beta.copy()
    nz = int(np.flatnonzero(np.abs(bad) > 0.1)[1])
    bad[nz] = 0.0
    refined = assemble_refinement_sum(chain3.phi, bad)
    dev = np.abs(refined.values - embed(chain3.phi, -1, chain3.M + 1)).max()
    assert dev >= 1.0 / chain3.p


def test_star_psi_is_character_bump():
    system = build_system(RootedTree.validate([0, 0, 0], 3))
    psi1 = system.psi[0]
    assert psi1.support_level == -1 and psi1.resolution_level == 1
    # on G_0 (digit a_-1 = 0): omega^{a_0}; zero elsewhere
    from vilwav.group import unit_roots

    for a0 in range(3):
        for am1 in range(3):
            expected = unit_roots(3)[a0] if am1 == 0 else 0.0
            assert abs(psi1.values[am1 + 3 * a0] - expected) < 1e-14


def test_psi_norm_and_orthogonality_to_phi(chain3):
    for psi in chain3.psi:
        assert psi.norm2() == pytest.approx(1.0, abs=1e-12)
        assert abs(inner_product(psi, chain3.phi)) < 1e-13


def test_two_route_psi_star_and_chain(star3, chain3):
    for system in (star3, chain3):
        for freq, time in zip(psi_freq(*family_spectra(system.phi_hat, system.mask), system.M), system.psi, strict=True):
            assert freq.support_level == time.support_level
            assert freq.resolution_level == time.resolution_level
            assert np.abs(freq.values - time.values).max() < 1e-13


def test_psi_freq_support_disjoint_from_phi_hat(chain3):
    phi_support = np.flatnonzero(np.abs(dense_values(chain3.phi_hat)) > 1e-12)
    for l in range(1, 3):
        spec = psi_hat(chain3.phi_hat, chain3.mask, l)
        # the shifted mask vanishes on the refinable support, so the two
        # spectra occupy disjoint cosets of the common window
        assert np.abs(dense_values(spec)[phi_support]).max() < 1e-13


def test_psi_hat_l0_reproduces_phi_hat(chain3):
    spec = psi_hat(chain3.phi_hat, chain3.mask, 0)
    width = 3**(chain3.M + 1)
    # refinement in frequency: entries above the old band must vanish
    assert np.abs(dense_values(spec)[width:].reshape(-1, width)).max() == pytest.approx(0.0, abs=1e-13)
    from vilwav.refinable import inverse_transform

    phi_again = inverse_transform(spec)
    from vilwav.refinable import embed

    assert np.abs(phi_again.values - embed(chain3.phi, -1, chain3.M + 1)).max() < 1e-13


def test_shifted_mask_structure(chain3):
    assert shifted_mask_checks(chain3.mask).max_deviation == 0.0


def test_shifted_mask_structure_reads_the_products(phased_chain5):
    # a second unimodular entry in row 1 keeps every modulus 0 or 1: only m_l * m_k = 0 fails
    lam = phased_chain5.mask.lam.copy()
    lam[1 + 5 * 2] = 1.0
    mods = np.abs(lam)
    assert np.minimum(mods, np.abs(mods - 1)).max() < 1e-15
    check = shifted_mask_checks(MaskTable(5, lam))
    assert not check.passed and check.max_deviation == pytest.approx(1.0, abs=1e-15)


def test_shifted_masks_gather_every_shift(rng):
    lam = rng.normal(size=25) + 1j * rng.normal(size=25)
    tables = shifted_masks(MaskTable(5, lam))
    for l, b, a in np.ndindex(5, 5, 5):
        assert tables[l, b, a] == lam[a + 5 * ((b - l) % 5)]


def test_wavelet_gram_is_identity(chain3):
    # blocks: psi_1 and psi_2 translates orthonormal, and orthogonal to each other and to phi
    gram = gram_matrix((chain3.phi,) + chain3.psi, all_shifts(3, 2))
    assert np.abs(gram - np.eye(27)).max() < 1e-12


def test_verify_says_which_wavelet_cell_and_gram_entry_are_off(chain3):
    # beta_2 bent to move its time route by 10 at cell 5 alone (the beta system is unitary)
    # is caught by psi-two-route, which reads beta_l; the Gram check reads the frequency
    # route's spectra (its where: the test below)
    bend = 10.0 * wavelet._beta_system(3).conj()[5]
    bent = tampered(chain3, beta_l=(chain3.beta_l[0], chain3.beta_l[1] + bend))
    checks = {c.name: c for c in verify_wavelet_system(bent)}
    assert not checks["psi-two-route"].passed
    assert checks["psi-two-route"].max_deviation == pytest.approx(10.0)
    assert checks["psi-two-route"].where == "wavelet 2, cell 5"
    assert checks["gram-orthonormal-family"].passed and checks["gram-orthonormal-family"].where == ""
    assert checks["refinement-cosets"].passed
    assert all(c.where == "" for c in verify_wavelet_system(build_system(RootedTree.validate([0, 0], 2))))


def test_verify_says_which_gram_entry_of_the_spectral_family_is_off(chain3, monkeypatch):
    # |2 psi_2|^2 puts the largest Gram deviation, 3, on psi_2 against itself, unshifted
    def double_psi_2(keys, table):
        table[2] *= 2

    handed = tamper_family(monkeypatch, double_psi_2)
    gram = {c.name: c for c in verify_wavelet_system(chain3)}["gram-orthonormal-family"]
    assert not gram.passed and gram.where == "functions (2, 2), shift (0, 0)"
    assert gram.max_deviation == pytest.approx(3.0, abs=1e-14)
    assert abs(gram.max_deviation - dense_gram_deviation(3, *handed[-1])) < 1e-15


def test_gram_check_catches_a_perturbed_wavelet(rng):
    # noise on beta_2 is caught by psi-two-route, which reads beta_l, as noise on its time route
    system = build_system(RootedTree.validate([0, 0, 1, 2, 3], 5))
    noise = 1e-6 * rng.normal(size=25)
    bad = tampered(system, beta_l=system.beta_l[:1] + (system.beta_l[1] + noise,) + system.beta_l[2:])
    two_route = {c.name: c for c in verify_wavelet_system(bad)}["psi-two-route"]
    assert not two_route.passed and two_route.where.startswith("wavelet 2, cell ")
    assert abs(two_route.max_deviation - np.abs(wavelet._beta_system(5) @ noise).max()) < 1e-15


def test_gram_check_catches_a_perturbed_wavelet_spectrum(rng, monkeypatch):
    system = build_system(RootedTree.validate([0, 0, 1, 2, 3], 5))

    def bend(keys, table):
        table[2, table[2] != 0] += 1e-6 * rng.normal(size=np.count_nonzero(table[2]))

    handed = tamper_family(monkeypatch, bend)
    gram = {c.name: c for c in verify_wavelet_system(system)}["gram-orthonormal-family"]
    assert not gram.passed and re.fullmatch(r"functions \((2, \d|\d, 2)\), shift \(\d, 0\)", gram.where)
    assert abs(gram.max_deviation - dense_gram_deviation(5, *handed[-1])) < 1e-15


def p_trees(p):
    """Every tree at p = 3 and 5; the two worked instances at p = 7."""
    return list(enumerate_trees(p)) if p < 7 else [RootedTree.validate(t, 7) for t in (TREE7_A_PARENT, TREE7_B_PARENT)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_family_correlation_is_the_cell_tables_correlation(p, monkeypatch):
    # noise on every key makes the family far from orthonormal, so omega^(r d) and its
    # conjugate, which agree on an orthonormal family, give different correlations
    rng = np.random.default_rng(p)

    def add_noise(keys, table):
        table += 0.1 * (rng.normal(size=table.shape) + 1j * rng.normal(size=table.shape))

    handed = tamper_family(monkeypatch, add_noise)
    worst, conjugate = 0.0, np.inf
    for tree in p_trees(p):
        for phases in ({}, {e: float(rng.uniform()) for e in tree.edges()}):
            system = build_system(tree, phases)
            rule = wavelet.family_correlation(*wavelet.family_spectra(system.phi_hat, system.mask))
            cells = translation_correlation(family_functions(p, *handed[-1]))
            worst = max(worst, np.abs(rule - cells).max())
            conjugate = min(conjugate, np.abs(rule[:, :, -np.arange(p) % p] - cells).max())
    assert worst < 1e-14 and conjugate > 1e-2


def test_family_correlation_pads_residues_of_unequal_size():
    # a tampered family: residues 0, 1, 2 hold 3, 1 and 2 keys, so the batched Grams read zero columns
    rng = np.random.default_rng(7)
    keys = np.array([0, 1, 2, 3, 5, 6])
    table = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
    grams = [table[:, keys % 3 == r] @ table[:, keys % 3 == r].conj().T for r in range(3)]
    want = np.einsum("rik,rd->ikd", grams, OMEGA3 ** np.outer(np.arange(3), np.arange(3))) / 3
    assert np.abs(wavelet.family_correlation(keys, table) - want).max() < 1e-14  # entries of size 1 to 10


def test_family_spectra_refuses_wavelet_keys_past_int64():
    # the p = 17 chain 0 -> 16 -> ... -> 2 with 1 a leaf of the root has M = 14: phi_hat's keys
    # of 15 digits fit an int64, and the wavelets' a + p*s of 16 digits would wrap
    wide = build_system(RootedTree.validate([0, 0, *range(3, 17), 0], 17))
    with pytest.raises(SizeCapError, match="16 digits at p=17 do not fit an int64"):
        family_spectra(wide.phi_hat, wide.mask)
    # one vertex off the chain: M = 13, and the 16-digit keys fit
    fits = build_system(RootedTree.validate([0, 0, 0, *range(4, 17), 0], 17))
    keys, _ = family_spectra(fits.phi_hat, fits.mask)
    assert fits.M == 13 and 0 <= keys.min() and keys.max() < 17**15


@pytest.fixture
def phased_chain5():
    tree = RootedTree.validate([0, 0, 1, 2, 3], 5)
    return build_system(tree, {e: 0.1 * (k + 1) for k, e in enumerate(tree.edges())})


def gram_and_cells_deviation(system, monkeypatch, change):
    """The Gram check of verify on system with its family changed, and the cell tables' deviation from I."""
    handed = tamper_family(monkeypatch, change)
    gram = {c.name: c for c in verify_wavelet_system(system)}["gram-orthonormal-family"]
    corr = translation_correlation(family_functions(system.p, *handed[-1]))
    corr[:, :, 0] -= np.eye(system.p)
    return gram, float(np.abs(corr).max())


def test_gram_check_catches_a_mixed_wavelet(phased_chain5, monkeypatch):
    # (psi_1 + psi_2) / sqrt 2 has unit norm and is orthogonal to its own translates
    def mix(keys, table):
        table[2] = (table[1] + table[2]) / np.sqrt(2)

    gram, cells = gram_and_cells_deviation(phased_chain5, monkeypatch, mix)
    assert not gram.passed and gram.where == "functions (1, 2), shift (0, 0)"
    assert gram.max_deviation == pytest.approx(np.sqrt(0.5), abs=1e-14)
    assert abs(gram.max_deviation - cells) < 1e-14


@pytest.mark.parametrize("change", ["drop a coset", "modulus off by 1e-9"])
def test_gram_check_catches_a_tampered_coset(phased_chain5, monkeypatch, change):
    def tamper(keys, table):
        key = np.flatnonzero(table[1])[-1]
        table[1, key] *= 0.0 if change == "drop a coset" else 1 + 1e-9

    gram, cells = gram_and_cells_deviation(phased_chain5, monkeypatch, tamper)
    assert not gram.passed and cells > 1e-12
    assert abs(gram.max_deviation - cells) < 1e-14


@pytest.mark.parametrize("value", [1e200, np.nan])
@pytest.mark.parametrize("cell", [1, 4])  # the chain's edge 0->1, and a cell off its tree
def test_gram_check_fails_a_huge_or_nan_mask_entry_without_warnings(value, cell):
    lam = mask_from_tree(RootedTree.validate([0, 0, 1], 3)).lam.copy()
    lam[cell] = value
    system = WaveletSystem(RootedTree.validate([0, 0, 1], 3), MaskTable(3, lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gram = {c.name: c for c in verify_wavelet_system(system)}["gram-orthonormal-family"]
    assert not gram.passed and not np.isfinite(gram.max_deviation)


def test_verify_haar_p2_exact():
    system = build_system(RootedTree.validate([0, 0], 2))
    checks = verify_wavelet_system(system)
    assert all(c.passed for c in checks)
    assert max(c.max_deviation for c in checks) == 0.0


def test_verify_chain_full(chain3):
    checks = verify_wavelet_system(chain3)
    names = [c.name for c in checks]
    assert "gram-orthonormal-family" in names and "psi-two-route" in names
    assert all(c.passed for c in checks)


def test_verify_spectral_subset(chain3):
    spectral = verify_wavelet_system(chain3, spectral_only=True)
    assert "gram-orthonormal-family" not in [c.name for c in spectral]
    assert all(c.passed for c in spectral)


VERIFY_CHECKS = [
    "mask-row-sums", "mask-vanishing-shell", "spectrum-elementary", "spectrum-residue-sums",
    "beta-residual", "beta-energy", "shifted-mask-structure",
    "refinement-cosets", "psi-two-route", "gram-orthonormal-family",
]
SPECTRAL_CHECK_FUNCTIONS = [
    "check_row_condition", "check_vanishing", "check_elementary",
    "check_orthonormality_spectral", "beta_residual", "shifted_mask_checks",
]


def test_verify_calls_each_spectral_check_once_directly(chain3, monkeypatch):
    # the benchmark times these checks as direct callees of verify_wavelet_system
    callers = []
    for name in SPECTRAL_CHECK_FUNCTIONS:
        def recorder(*args, _name=name, _check=getattr(wavelet, name), **kwargs):
            callers.append((_name, sys._getframe(1).f_code.co_name))
            return _check(*args, **kwargs)
        monkeypatch.setattr(wavelet, name, recorder)
    assert [c.name for c in verify_wavelet_system(chain3)] == VERIFY_CHECKS
    assert callers == [(name, "verify_wavelet_system") for name in SPECTRAL_CHECK_FUNCTIONS]


def test_tol_reaches_every_check_but_the_exact_one(chain3):
    checks = verify_wavelet_system(chain3, tol=1e-300)
    failed = [c.name for c in checks if not c.passed]
    assert failed and failed == [c.name for c in checks if c.max_deviation > 0]
    # one level short, an orbit product survives on the shell whatever the tolerance
    short = verify_wavelet_system(tampered(chain3, M=0), spectral_only=True, tol=0.5)
    assert [c.name for c in short if not c.passed] == ["mask-vanishing-shell"]


def test_verify_catches_corrupted_mask():
    lam = mask_from_tree(RootedTree.validate([0, 0, 1], 3)).lam.copy()
    lam[4] = 1.0  # extra unimodular entry in row i=1
    mask = MaskTable(3, lam)
    from vilwav.mask import check_row_condition

    assert not check_row_condition(mask).passed


@given(st.sampled_from([2, 3]).flatmap(tree_and_phases))
def test_full_verification_random_phases(tp):
    tree, phases = tp
    checks = verify_wavelet_system(build_system(tree, phases))
    assert all(c.passed for c in checks)


def test_psi_defining_sum_matches(chain3):
    for l, bl in enumerate(chain3.beta_l):
        direct = psi_time(chain3.phi, bl)
        assert np.array_equal(direct.values, chain3.psi[l].values)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cell_identities_hold_where_the_coset_checks_pass(p):
    # the refinement sum and both routes to psi on cells, which verify no longer builds
    rng = np.random.default_rng(p)
    for tree in p_trees(p):
        for phases in ({}, {e: float(rng.uniform()) for e in tree.edges()}):
            system = build_system(tree, phases)
            checks = {c.name: c for c in verify_wavelet_system(system)}
            assert all(d < 1e-14 for d in cell_identities(system))
            assert checks["refinement-cosets"].passed and checks["psi-two-route"].passed


def perturbed_masks(tree, rng):
    """The tree's mask under seeded phases, perturbed five ways; the noise is near the tolerance."""
    p = tree.p
    lam = mask_from_tree(tree, {e: float(rng.uniform()) for e in tree.edges()}).lam
    scale = 10 ** rng.uniform(-15, -9)
    replaced, moved, mapped = lam.copy(), lam.copy(), np.zeros(p * p, dtype=complex)
    replaced[rng.integers(p * p)] = complex(rng.normal(), rng.normal())
    i = int(rng.integers(1, p))
    j = tree.parent[i]
    moved[i + p * j], moved[i + p * ((j + int(rng.integers(1, p))) % p)] = 0.0, lam[i + p * j]
    mapped[0] = 1.0
    mapped[np.arange(1, p) + p * rng.integers(p, size=p - 1)] = np.exp(2j * np.pi * rng.uniform(size=p - 1))
    return {
        "replace one entry": replaced,
        "phase noise": lam * np.exp(2j * np.pi * scale * rng.normal(size=p * p)),
        "modulus noise": lam * (1 + scale * rng.normal(size=p * p)),
        "move an edge in its row": moved,
        "random map": mapped,
    }


def test_coset_checks_give_the_cell_routes_verdict_on_perturbed_masks():
    # the cell route: the seven spectral checks, the two cell identities and the Gram check;
    # a coset deviation is at most p times the cell one, and a cell deviation at most p + 1
    # times the coset one, so the verdicts may differ only where some deviation is within
    # a factor p of tol
    rng = np.random.default_rng(20261020)
    verdicts, border, cases = set(), [], 0
    for p in (3, 5):
        for tree in enumerate_trees(p):
            for how, lam in perturbed_masks(tree, rng).items():
                system = WaveletSystem(tree, MaskTable(p, lam))
                checks = verify_wavelet_system(system)
                cells = cell_identities(system)
                cell_route = all(c.passed for c in checks[:7] + checks[9:]) and all(d < DEFAULT_TOL for d in cells)
                verdicts.add(all(c.passed for c in checks))
                cases += 1
                if all(c.passed for c in checks) != cell_route:
                    devs = [checks[7].max_deviation, checks[8].max_deviation, *cells]
                    assert any(DEFAULT_TOL / p <= d <= p * DEFAULT_TOL for d in devs), (how, tree.parent)
                    border.append((how, tree.parent))
    assert verdicts == {True, False} and cases == 640 and len(border) < cases / 20, border
