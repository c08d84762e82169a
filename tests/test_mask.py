import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vilwav.group import digit_table
from vilwav.mask import (
    MaskError,
    MaskTable,
    check_row_condition,
    check_vanishing,
    mask_from_tree,
    mask_to_tree,
)
from vilwav.oracle import orbit_product
from vilwav.tree import RootedTree, TreeError, enumerate_trees

from conftest import TREE7_B_PARENT


def chain3():
    return RootedTree.validate([0, 0, 1], 3)


def tree_and_phases(p):
    """Strategy: (tree, random unimodular edge phases) at modulus p."""
    trees = st.sampled_from(list(enumerate_trees(p)))
    return trees.flatmap(
        lambda t: st.lists(
            st.floats(0.0, 1.0, exclude_max=True), min_size=p - 1, max_size=p - 1
        ).map(lambda turns: (t, dict(zip(t.edges(), turns))))
    )


def test_star_mask_values():
    lam = mask_from_tree(RootedTree.validate([0, 0, 0], 3)).lam
    assert np.array_equal(lam, np.array([1, 1, 1, 0, 0, 0, 0, 0, 0], dtype=complex))


def test_chain_mask_support():
    lam = mask_from_tree(chain3()).lam
    assert set(np.flatnonzero(lam)) == {0, 1, 5}
    assert lam[0] == 1 and lam[1] == 1 and lam[5] == 1


def test_tree_b_mask_indices():
    mask = mask_from_tree(RootedTree.validate(TREE7_B_PARENT, 7))
    nonzero = set(int(i) for i in np.flatnonzero(mask.lam))
    # the three cosets along the path (0,3,2,6): r^3, r^2 s^3, r^6 s^2
    assert {3, 2 + 7 * 3, 6 + 7 * 2} <= nonzero
    assert nonzero == {0, 3, 5, 1 + 7 * 3, 2 + 7 * 3, 6 + 7 * 2, 4 + 7 * 5}


def test_phase_on_non_edge_rejected():
    with pytest.raises(MaskError, match="non-edge"):
        mask_from_tree(chain3(), {(0, 2): 0.25})


def test_mask_table_shape_and_prime_checks():
    with pytest.raises(MaskError, match="length"):
        MaskTable(3, np.ones(4))
    with pytest.raises(MaskError, match="not prime"):
        MaskTable(4, np.zeros(16))


def test_roundtrip_chain():
    tree, phases = mask_to_tree(mask_from_tree(chain3()))
    assert tree.parent == (0, 0, 1)
    assert phases == {}


def test_roundtrip_star_from_support():
    lam = np.zeros(9, dtype=complex)
    lam[[0, 1, 2]] = 1.0
    tree, _ = mask_to_tree(MaskTable(3, lam))
    assert tree.parent == (0, 0, 0)


@given(st.sampled_from([2, 3, 5]).flatmap(tree_and_phases))
def test_roundtrip_random_phases(tp):
    tree, phases = tp
    mask = mask_from_tree(tree, phases)
    back_tree, back_phases = mask_to_tree(mask)
    assert back_tree.parent == tree.parent
    # values within tol of 1 may be legitimately flattened to phase 0
    assert np.abs(mask_from_tree(back_tree, back_phases).lam - mask.lam).max() <= 1e-10


def test_cycle_mask_rejected_with_cycle_named():
    lam = np.zeros(9, dtype=complex)
    lam[[0, 1 + 3 * 2, 2 + 3 * 1]] = 1.0  # parent(1)=2, parent(2)=1
    with pytest.raises(TreeError, match=r"cycle: 1->2->1"):
        mask_to_tree(MaskTable(3, lam))


def test_bad_row_rejected():
    lam = np.zeros(9, dtype=complex)
    lam[[0, 1, 4]] = 1.0  # row i=1 has two unimodular entries
    with pytest.raises(MaskError, match="row i=1"):
        mask_to_tree(MaskTable(3, lam))
    lam2 = np.zeros(9, dtype=complex)
    lam2[0] = 1.0  # rows 1 and 2 empty
    with pytest.raises(MaskError, match="expected exactly 1"):
        mask_to_tree(MaskTable(3, lam2))


def test_non_unimodular_rejected():
    lam = np.zeros(9, dtype=complex)
    lam[[0, 1, 5]] = 1.0
    lam[1] = 0.5
    with pytest.raises(MaskError, match="moduli"):
        mask_to_tree(MaskTable(3, lam))


def test_lambda0_must_be_one():
    lam = np.zeros(9, dtype=complex)
    lam[[0, 1, 5]] = 1.0
    lam[0] = np.exp(0.5j)
    with pytest.raises(MaskError, match="lambda_0"):
        mask_to_tree(MaskTable(3, lam))


def test_row_condition_tree_masks_exact():
    for tree in enumerate_trees(5):
        report = check_row_condition(mask_from_tree(tree))
        assert report.passed and report.max_deviation == 0.0
        assert report.name == "mask-row-sums" and report.where == ""


def test_row_condition_failures():
    lam = np.zeros(9, dtype=complex)
    lam[0] = 1.0  # rows 1, 2 are all-zero
    report = check_row_condition(MaskTable(3, lam))
    assert not report.passed and report.max_deviation == pytest.approx(1.0)
    assert report.where == "residue 1"
    lam2 = mask_from_tree(RootedTree.validate([0, 0, 0], 3)).lam.copy()
    lam2[1] = 0.5
    report2 = check_row_condition(MaskTable(3, lam2))
    assert report2.max_deviation == pytest.approx(0.75) and report2.where == "residue 1"


def test_vanishing_chain_at_correct_level():
    mask = mask_from_tree(chain3())
    report = check_vanishing(mask, 1)
    assert report.passed and report.max_deviation == 0.0 and report.where == ""


def test_vanishing_chain_fails_one_level_short():
    mask = mask_from_tree(chain3())
    report = check_vanishing(mask, 0)
    assert not report.passed
    assert "(2, 1)" in report.where  # lambda_5 * lambda_1 survives


def test_vanishing_fails_a_product_of_1e_minus_14_exactly():
    # an off-tree entry into the deepest vertex of the phased p=5 chain: the row sums stay
    # within rounding, and the orbit product through it fails the exact check, tolerance or not
    tree = RootedTree.validate([0, 0, 1, 2, 3], 5)
    lam = mask_from_tree(tree, {e: 0.1 * (k + 1) for k, e in enumerate(tree.edges())}).lam.copy()
    lam[1 + 5 * 4] = 1e-14
    mask = MaskTable(5, lam)
    assert check_row_condition(mask).max_deviation < 1e-15
    report = check_vanishing(mask, tree.support_exponent)
    assert not report.passed and report.where == "digits (1, 4, 3, 2, 1)"
    assert report.max_deviation == pytest.approx(1e-14, rel=1e-12)


def test_vanishing_star():
    mask = mask_from_tree(RootedTree.validate([0, 0, 0], 3))
    assert check_vanishing(mask, 0).passed


@given(st.sampled_from([3, 5]).flatmap(tree_and_phases))
def test_vanishing_tight_at_tree_height(tp):
    tree, phases = tp
    mask = mask_from_tree(tree, phases)
    M = tree.support_exponent
    assert check_vanishing(mask, M).passed
    if M > 0:
        assert not check_vanishing(mask, M - 1).passed


def dense_shell_max(mask, M):
    """The largest orbit-product modulus on the shell, over all p^(M+2) digit strings."""
    w = M + 2
    shell = digit_table(mask.p, w)[:, w - 1] != 0
    return float(np.abs(orbit_product(mask, w)[shell]).max())


def orbit_product_at(mask, where):
    digits = [int(d) for d in where.removeprefix("digits (").rstrip(")").split(",") if d.strip()]
    return abs(np.prod([mask.lam[a + mask.p * b] for a, b in zip(digits, digits[1:] + [0])]))


def assert_matches_dense_shell_max(mask, M):
    report = check_vanishing(mask, M)
    dense = dense_shell_max(mask, M)
    assert report.passed == (dense == 0.0)
    assert report.max_deviation == pytest.approx(dense, rel=1e-15, abs=0.0)
    if dense:  # the reported digit string carries the deviation
        assert orbit_product_at(mask, report.where) == pytest.approx(report.max_deviation, rel=1e-15)
    else:
        assert report.where == ""
    return report


@pytest.mark.parametrize("p", [2, 3, 5])
def test_vanishing_recursion_matches_dense_product_on_every_tree(p):
    rng = np.random.default_rng(p)
    for tree in enumerate_trees(p):
        mask = mask_from_tree(tree, {e: float(rng.uniform()) for e in tree.edges()})
        M = tree.support_exponent
        assert assert_matches_dense_shell_max(mask, M).passed
        assert not assert_matches_dense_shell_max(mask, M - 1).passed


@given(
    st.sampled_from([2, 3, 5]).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(0, 2),
            st.lists(st.tuples(st.booleans(), st.floats(0.1, 10.0), st.floats(0.0, 1.0)),
                     min_size=p * p, max_size=p * p),
        )
    )
)
def test_vanishing_recursion_matches_dense_product_on_random_masks(case):
    p, M, cells = case
    lam = [keep * size * np.exp(2j * np.pi * turn) for keep, size, turn in cells]
    assert_matches_dense_shell_max(MaskTable(p, lam), M)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_vanishing_fails_on_a_non_finite_lambda(bad):
    lam = mask_from_tree(chain3()).lam.copy()
    lam[5] = bad  # the edge 1->2
    report = check_vanishing(MaskTable(3, lam), 1)
    assert not report.passed and not np.isfinite(report.max_deviation)


def test_vanishing_builds_no_shell_table(monkeypatch):
    # the p=7 chain's shell has 7^7 digit strings; the recursion needs p^2 weights
    mask = mask_from_tree(RootedTree.validate([0, 0, 1, 2, 3, 4, 5], 7))
    monkeypatch.setenv("VILWAV_SIZE_CAP", "1000")
    report = check_vanishing(mask, 5)
    assert report.passed and report.max_deviation == 0.0
    assert not check_vanishing(mask, 4).passed
