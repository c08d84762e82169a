import pytest
from hypothesis import given
from hypothesis import strategies as st

from vilwav import tree as tree_module
from vilwav.config import SizeCapError
from vilwav.tree import RootedTree, TreeError, enumerate_trees, prufer_to_parent, sample_tree

from conftest import TREE7_A_PARENT, TREE7_B_PARENT


def test_seven_vertex_trees_valid():
    t1 = RootedTree.validate(TREE7_A_PARENT, 7)
    t2 = RootedTree.validate(TREE7_B_PARENT, 7)
    assert t1.height() == 4 and t2.height() == 4
    assert t1.support_exponent == 2 and t2.support_exponent == 2


def test_tree_a_longest_path():
    t1 = RootedTree.validate(TREE7_A_PARENT, 7)
    assert t1.path_to(6) == (0, 5, 4, 6)


def test_tree_b_paths():
    t2 = RootedTree.validate(TREE7_B_PARENT, 7)
    assert t2.path_to(6) == (0, 3, 2, 6)
    assert t2.path_to(1) == (0, 3, 1)
    assert t2.path_to(0) == (0,)


def test_cycle_is_named():
    with pytest.raises(TreeError, match=r"cycle: 1->2->1"):
        RootedTree.validate([0, 2, 1], 3)


def test_three_cycle_named():
    with pytest.raises(TreeError, match=r"cycle: "):
        RootedTree.validate([0, 2, 3, 1, 0], 5)


def test_validation_errors():
    with pytest.raises(TreeError, match="length"):
        RootedTree.validate([0, 0], 3)
    with pytest.raises(TreeError, match="root sentinel"):
        RootedTree.validate([1, 0, 0], 3)
    with pytest.raises(TreeError, match="out of range"):
        RootedTree.validate([0, 3, 0], 3)


def test_star_and_chain_heights():
    for p in (2, 3, 5, 7):
        star = RootedTree.validate([0] * p, p)
        assert star.height() == 2 and star.support_exponent == 0
    chain = RootedTree.validate([0, 0, 1], 3)
    assert chain.height() == 3


def test_first_level_and_edges():
    t = RootedTree.validate(TREE7_B_PARENT, 7)
    assert t.first_level() == (3, 5)
    assert sorted(t.edges()) == [(0, 3), (0, 5), (2, 6), (3, 1), (3, 2), (5, 4)]


@pytest.mark.parametrize("p,count", [(3, 3), (4, 16), (5, 125)])
def test_enumeration_counts(p, count):
    trees = list(enumerate_trees(p))
    assert len(trees) == count
    assert len({t.parent for t in trees}) == count


def test_enumeration_p3_members():
    parents = {t.parent for t in enumerate_trees(3)}
    assert parents == {(0, 0, 0), (0, 0, 1), (0, 2, 0)}


def test_enumeration_p2():
    assert [t.parent for t in enumerate_trees(2)] == [(0, 0)]


def test_enumeration_size_cap(monkeypatch):
    def never(*args):
        raise AssertionError("a tree was built")

    # 11^9 trees exceed the default cap: refused before the first tree is decoded
    with monkeypatch.context() as m:
        m.setattr(tree_module, "prufer_to_parent", never)
        with pytest.raises(SizeCapError, match="^tree enumeration of 2357947691 trees exceeds cap"):
            next(enumerate_trees(11))
        with pytest.raises(SizeCapError):
            next(enumerate_trees(1_000_000_007))  # refused without building p^(p-2)
    monkeypatch.setenv("VILWAV_SIZE_CAP", "100")
    with pytest.raises(SizeCapError):
        next(enumerate_trees(5))  # 125 trees
    assert len(list(enumerate_trees(3))) == 3


def test_enumeration_deterministic():
    first = [t.parent for t in enumerate_trees(5)]
    second = [t.parent for t in enumerate_trees(5)]
    assert first == second


def prufer_code(parent) -> list[int]:
    """Encode a tree the textbook way: remove the smallest leaf and record its neighbour, p - 2 times."""
    p = len(parent)
    neighbours = {v: set() for v in range(p)}
    for v in range(1, p):
        neighbours[v].add(parent[v])
        neighbours[parent[v]].add(v)
    code = []
    for _ in range(p - 2):
        leaf = min(v for v in neighbours if len(neighbours[v]) == 1)
        (up,) = neighbours.pop(leaf)
        neighbours[up].remove(leaf)
        code.append(up)
    return code


@pytest.mark.parametrize("p, step", [(5, 1), (7, 7)])
def test_enumeration_is_in_prufer_order(p, step):
    # tree number i encodes to the base-p digits of i, least significant first
    for i, tree in enumerate(enumerate_trees(p)):
        if i % step == 0:
            assert prufer_code(tree.parent) == [i // p**j % p for j in range(p - 2)], i


def test_prufer_star():
    # the all-zero sequence decodes to the star centred at 0
    assert prufer_to_parent([0, 0, 0], 5) == (0, 0, 0, 0, 0)


@given(st.sampled_from([3, 5]), st.data())
def test_enumerated_tree_invariants(p, data):
    idx = data.draw(st.integers(0, p ** (p - 2) - 1))
    tree = list(enumerate_trees(p))[idx]
    assert len(tree.edges()) == p - 1
    assert 2 <= tree.height() <= p
    edge_set = set(tree.edges())
    for v in range(p):
        path = tree.path_to(v)
        assert path[0] == 0 and path[-1] == v
        for a, b in zip(path, path[1:]):
            assert (a, b) in edge_set


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(0, 2**31))
def test_sample_tree_is_valid(p, seed):
    import numpy as np

    tree = sample_tree(p, np.random.default_rng(seed))
    assert tree.p == p
    assert RootedTree.validate(tree.parent, p) == tree
