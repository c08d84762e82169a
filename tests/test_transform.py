import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vilwav.config import InputError, SizeCapError
from vilwav.refinable import StepFunction, embed, inner_product, translate_dilate
from vilwav.transform import (
    CoeffGrid,
    CoeffPyramid,
    LevelMismatchError,
    analyze,
    analyze_level,
    materialize,
    project,
    shift_key_digits,
    synthesize,
    synthesize_level,
)
from vilwav.tree import RootedTree, enumerate_trees
from vilwav.wavelet import build_system


def random_grid(p, level, width, rng, n=None):
    shape = () if n is None else (n,)
    return CoeffGrid(
        p,
        level,
        {k: rng.normal(size=shape) + 1j * rng.normal(size=shape) for k in range(p**width)},
    )


def grid_error(a, b):
    keys = set(a.entries) | set(b.entries)
    return max(
        (float(np.abs(a.entries.get(k, 0.0) - b.entries.get(k, 0.0)).max()) for k in keys),
        default=0.0,
    )


def test_shift_key_digits():
    assert shift_key_digits(0, 3) == ()
    assert shift_key_digits(5, 3) == (2, 1)
    assert shift_key_digits(9, 3) == (0, 0, 1)


def test_star_constant_block_averages(star3):
    grid = CoeffGrid(3, 0, {0: 1.0, 1: 1.0, 2: 1.0})
    approx, details = analyze_level(grid, star3)
    assert approx.level == -1
    assert set(approx.entries) == {0}
    assert approx.entries[0] == pytest.approx(math.sqrt(3))
    for d in details:
        assert all(abs(v) < 1e-13 for v in d.entries.values())


def test_star_spike_splits_evenly(star3):
    grid = CoeffGrid(3, 0, {0: 1.0})
    approx, details = analyze_level(grid, star3)
    assert approx.entries[0] == pytest.approx(1 / math.sqrt(3))
    for d in details:
        assert d.entries[0] == pytest.approx(1 / math.sqrt(3), abs=1e-13)


def test_zero_grid_stays_zero(chain3):
    approx, details = analyze_level(CoeffGrid(3, 0, {}), chain3)
    assert approx.entries == {} and all(d.entries == {} for d in details)
    pyramid = analyze(CoeffGrid(3, 2, {}), chain3, 2)
    assert synthesize(pyramid, chain3).entries == {}


def test_single_level_matches_cascade(chain3, rng):
    grid = random_grid(3, 0, 2, rng)
    approx, details = analyze_level(grid, chain3)
    pyramid = analyze(grid, chain3, 1)
    assert grid_error(pyramid.approx, approx) == 0.0
    for a, b in zip(pyramid.details[0], details):
        assert grid_error(a, b) == 0.0


def test_level_mismatch_rejected(chain3):
    approx = CoeffGrid(3, 0, {0: 1.0})
    bad = (CoeffGrid(3, 1, {0: 1.0}), CoeffGrid(3, 0, {}))
    with pytest.raises(LevelMismatchError):
        synthesize_level(approx, bad, chain3)


@pytest.mark.parametrize("count", [1, 3])
def test_detail_count_other_than_p_minus_1_rejected(chain3, count):
    # 1 + 1 or 1 + 3 grids of 3^2 keys still reshape into rows of 9, which would mix grids
    grid = CoeffGrid(3, 0, {k: 1.0 for k in range(9)})
    with pytest.raises(LevelMismatchError, match=f"{count} detail grids, not p - 1 = 2"):
        synthesize_level(grid, (grid,) * count, chain3)


def test_analyze_needs_at_least_one_level(chain3):
    with pytest.raises(ValueError, match="levels"):
        analyze(CoeffGrid(3, 0, {0: 1.0}), chain3, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_perfect_reconstruction_all_trees(p, rng):
    for tree in enumerate_trees(p):
        system = build_system(tree)
        grid = random_grid(p, 0, 2, rng)
        pyramid = analyze(grid, system, 3)
        back = synthesize(pyramid, system)
        assert back.level == 0
        assert grid_error(grid, back) < 1e-10


def test_parseval_per_level(chain3, rng):
    grid = random_grid(3, 1, 3, rng)
    current = grid
    for _ in range(3):
        approx, details = analyze_level(current, chain3)
        out_energy = approx.energy() + sum(d.energy() for d in details)
        assert out_energy == pytest.approx(current.energy(), abs=1e-10)
        current = approx


def test_energy_conservation_p5_l4(rng):
    system = build_system(RootedTree.validate([0, 0, 1, 2, 3], 5))
    grid = random_grid(5, 0, 2, rng)
    pyramid = analyze(grid, system, 4)
    assert pyramid.energy() == pytest.approx(grid.energy(), abs=1e-10)


def test_analysis_synthesis_adjoint(chain3, rng):
    # <analyze(x), y> = <x, synthesize(y)> over the pyramid inner product
    x = random_grid(3, 0, 2, rng)
    y_approx = random_grid(3, -1, 2, rng)
    y_details = tuple(random_grid(3, -1, 2, rng) for _ in range(2))
    ax, dx = analyze_level(x, chain3)

    def dot(a, b):
        return sum(a.entries.get(k, 0.0) * np.conj(b.entries.get(k, 0.0)) for k in a.entries)

    lhs = dot(ax, y_approx) + sum(dot(d, y) for d, y in zip(dx, y_details))
    rhs = dot(x, synthesize_level(y_approx, y_details, chain3))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_batched_vector_coefficients(chain3, rng):
    grid = random_grid(3, 0, 2, rng, n=32)
    pyramid = analyze(grid, chain3, 3)
    back = synthesize(pyramid, chain3)
    assert grid_error(grid, back) < 1e-10
    assert np.abs(pyramid.energy() - grid.energy()).max() < 1e-10


def test_project_phi_unit_coefficient(chain3):
    grid = project(chain3.phi, chain3, 0)
    assert grid.entries[0] == pytest.approx(1.0)
    assert all(abs(v) < 1e-13 for k, v in grid.entries.items() if k != 0)


def test_project_shift_covariance(chain3):
    shifted = translate_dilate(chain3.phi, 0, (1,))
    grid = project(shifted, chain3, 0)
    assert grid.entries[1] == pytest.approx(1.0)
    assert all(abs(v) < 1e-13 for k, v in grid.entries.items() if k != 1)


def test_project_recovers_coefficients(chain3, rng):
    grid = random_grid(3, 0, 2, rng)
    f = materialize(grid, chain3)
    assert grid_error(project(f, chain3, 0), grid) < 1e-12


def test_project_rejects_coarse_resolution(chain3):
    f = StepFunction(3, -1, 0, np.ones(3))
    with pytest.raises(ValueError, match=">= 2"):
        project(f, chain3, 1)


def test_materialize_refuses_a_batch_grid(chain3):
    # one step function per grid: 3 keys x 2 signals used to fail inside numpy's reshape
    grid = CoeffGrid(3, 0, keys=np.arange(3), values=np.ones((3, 2), dtype=complex))
    with pytest.raises(InputError, match="not a batch of 2"):
        materialize(grid, chain3)


def test_materialize_empty_grid(chain3):
    f = materialize(CoeffGrid(3, 0, {}), chain3)
    assert np.all(f.values == 0)


def test_round_trip_through_signal(star3, rng):
    # grid -> signal -> grid -> pyramid -> grid -> signal agrees everywhere
    grid = random_grid(3, 0, 2, rng)
    f = materialize(grid, star3)
    pyramid = analyze(project(f, star3, 0), star3, 2)
    back = synthesize(pyramid, star3)
    g = materialize(back, star3)
    lo = min(f.support_level, g.support_level)
    hi = max(f.resolution_level, g.resolution_level)
    assert np.abs(embed(f, lo, hi) - embed(g, lo, hi)).max() < 1e-10


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_reconstruction_property(seed, levels):
    rng = np.random.default_rng(seed)
    system = build_system(RootedTree.validate([0, 0, 1], 3))
    grid = random_grid(3, 0, 2, rng)
    back = synthesize(analyze(grid, system, levels), system)
    assert grid_error(grid, back) < 1e-10


# -- the dense kernel against the per-translate oracle --


@pytest.fixture(scope="module")
def oracle_systems():
    """Every p=3 tree and the p=5 chain."""
    trees = list(enumerate_trees(3)) + [RootedTree.validate([0, 0, 1, 2, 3], 5)]
    return [build_system(t) for t in trees]


def sparse_grid(p, level, width, rng):
    """A few keys of every digit count 1..width, the largest key p^width - 1 among them."""
    keys = {0, p**width - 1} | {int(rng.integers(p ** (d - 1), p**d)) for d in range(1, width + 1)}
    return CoeffGrid(p, level, {k: complex(rng.normal(), rng.normal()) for k in sorted(keys)})


def on_common_window(*funcs):
    lo = min(f.support_level for f in funcs)
    hi = max(f.resolution_level for f in funcs)
    return [embed(f, lo, hi) for f in funcs]


def basis(system, level, key):
    return translate_dilate(system.phi, level, shift_key_digits(key, system.p))


@pytest.mark.parametrize("level", [-1, 0, 2])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_materialize_is_the_sum_of_translates(oracle_systems, rng, level, width):
    for system in oracle_systems:
        p, M = system.p, system.M
        grid = sparse_grid(p, level, width, rng)
        f = materialize(grid, system)
        assert (f.support_level, f.resolution_level) == (level - width, M + level)
        terms = [(c, basis(system, level, k)) for k, c in grid.entries.items()]
        got, *windows = on_common_window(f, *(t for _, t in terms))
        want = sum(c * w for (c, _), w in zip(terms, windows))
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("level", [-1, 0, 2])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_project_is_the_inner_product_per_key(oracle_systems, rng, level, width):
    for system in oracle_systems:
        p, M = system.p, system.M
        signals = [
            materialize(sparse_grid(p, level, width, rng), system),
            # finer than the basis cells; the last starts a digit inside the basis window
            StepFunction(p, level - width, M + level + 1, rng.normal(size=p ** (M + width + 1))),
            StepFunction(p, level + 1 - width, M + level + 1, rng.normal(size=p ** (M + width))),
        ]
        for f in signals:
            grid = project(f, system, level)
            n_keys = p ** max(level - f.support_level, 1)
            assert grid.level == level and all(0 <= k < n_keys for k in grid.entries)
            keys = range(n_keys) if n_keys <= 27 else {*rng.integers(0, n_keys, 12).tolist(), n_keys - 1}
            for k in keys:
                want = inner_product(f, basis(system, level, k))
                assert abs(grid.entries.get(k, 0.0) - want) < 1e-12, (system.tree.parent, f, k)


def test_batched_levels_match_per_column_runs(oracle_systems, rng):
    n = 4
    for system in oracle_systems:
        p = system.p
        grid = random_grid(p, 1, 3, rng, n=n)
        approx, details = analyze_level(grid, system)
        back = synthesize_level(approx, details, system)
        for col in range(n):
            def column(g):
                return CoeffGrid(p, g.level, {k: v[col] for k, v in g.entries.items()})

            a, d = analyze_level(column(grid), system)
            assert grid_error(a, column(approx)) < 1e-14
            assert all(grid_error(x, column(y)) < 1e-14 for x, y in zip(d, details))
            assert grid_error(synthesize_level(a, d, system), column(back)) < 1e-14


@pytest.mark.parametrize("cap, key", [(None, 3**40), ("500", 3**6)])
def test_key_table_over_the_size_cap_is_refused(chain3, monkeypatch, cap, key):
    # a table over 3^41 keys cannot be allocated, so only the cap can refuse it
    if cap is not None:
        monkeypatch.setenv("VILWAV_SIZE_CAP", cap)
    grid = CoeffGrid(3, 0, {0: 1.0, key: 1.0})
    for run in (
        lambda: analyze_level(grid, chain3),
        lambda: synthesize_level(grid, (CoeffGrid(3, 0, {}),) * 2, chain3),
        lambda: materialize(grid, chain3),
    ):
        with pytest.raises(SizeCapError):
            run()


def test_synthesis_counts_every_grid_against_the_size_cap(chain3, monkeypatch):
    # one 3^5-key table fits under 500, but the p grids and the output hold 3^6 entries
    monkeypatch.setenv("VILWAV_SIZE_CAP", "500")
    grid = CoeffGrid(3, 0, {3**4: 1.0})
    analyze_level(grid, chain3)  # one table in, 3 x 3^4 entries out
    with pytest.raises(SizeCapError):
        synthesize_level(grid, (CoeffGrid(3, 0, {}),) * 2, chain3)


def test_synthesis_of_a_huge_coefficient_warns_nothing(chain3):
    # 1e308 from every grid sums past the double range; the output says so with inf, not a warning
    huge = CoeffGrid(3, 0, {0: 1e308})
    pyramid = CoeffPyramid(3, huge, ((huge, huge),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        signal = materialize(synthesize(pyramid, chain3), chain3)
        analyze(project(signal, chain3, 1), chain3, 1)
    assert not np.isfinite(signal.values).all()


def test_synthesis_returns_exactly_the_analysed_keys(tree7_a, rng):
    # scripts/reconstruction_experiment.py's shape: rounding dust would add a digit per level
    system = build_system(tree7_a, {edge: float(rng.uniform()) for edge in tree7_a.edges()})
    grid = random_grid(7, 3, 2, rng, n=1024)
    pyramid = analyze(grid, system, 3)
    current, sizes = pyramid.approx, []
    for details in pyramid.details:
        current = synthesize_level(current, details, system)
        sizes.append(len(current.entries))
    assert sizes == [7, 7, 49]
    assert set(current.entries) == set(grid.entries)
    assert grid_error(grid, current) < 1e-12


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
def test_non_finite_coefficients_stay_non_finite(chain3, bad):
    approx = CoeffGrid(3, 0, {0: bad, 3: 1.0})
    with np.errstate(invalid="ignore"):
        out = synthesize_level(approx, (CoeffGrid(3, 0, {}),) * 2, chain3)
    touched = [v for k, v in out.entries.items() if k < 9]
    assert len(touched) == 9 and not np.isfinite(touched).any()
    assert all(np.isfinite(v) for k, v in out.entries.items() if k >= 9)


def test_overflowing_cells_are_kept(chain3):
    # the sums of |term| overflow to inf everywhere, and inf <= inf must not zero a cell
    grid = CoeffGrid(3, 0, {k: 1.7e308 for k in range(3)})
    with np.errstate(over="ignore", invalid="ignore"):
        out = synthesize_level(grid, (grid, grid), chain3)
    values = np.array(list(out.entries.values()))
    assert len(values) == 9 and np.isinf(values).any() and np.isfinite(values).any()


def test_tiny_coefficient_next_to_a_large_one_survives(chain3):
    grid = CoeffGrid(3, 0, {0: 1.0, 1: 1e-9})
    back = synthesize(analyze(grid, chain3, 2), chain3)
    assert back.entries[1] == pytest.approx(1e-9, rel=1e-6)
    # error carried in from coarser levels is no rounding of this level's sum, so it may stay
    assert all(abs(v) < 1e-15 for k, v in back.entries.items() if k > 1)
    # the bound scales with the cell's own terms, not with an absolute floor
    back = synthesize(analyze(CoeffGrid(3, 0, {5: 1e-300}), chain3, 2), chain3)
    assert set(back.entries) == {5} and back.entries[5] == pytest.approx(1e-300, rel=1e-12)


def test_coefficient_at_rounding_scale_beside_one_survives_two_levels(chain3):
    # 1e-14 beside 1 sits just above the cut's bound: one 10 times wider moves key 4 by 2.3e-15,
    # and one 1000 times wider loses it
    back = synthesize(analyze(CoeffGrid(3, 2, {0: 1.0, 4: 1e-14}), chain3, 2), chain3)
    assert abs(back.entries[4] - 1e-14) < 1e-15
    # keys 3 and 6 may come back as residue carried in from the coarser level; the key set is not asserted


def test_analysis_keeps_tiny_coefficients(chain3):
    # analysis cuts by the same bound: it scales with each cell's own terms
    def split(entries):
        approx, details = analyze_level(CoeffGrid(3, 0, entries), chain3)
        return [approx, *details]

    for mixed, big, tiny in zip(split({0: 1.0, 1: 1e-9}), split({0: 1.0}), split({1: 1.0})):
        assert set(mixed.entries) == set(big.entries) | set(tiny.entries)
        for k, v in tiny.entries.items():
            assert mixed.entries[k] - big.entries.get(k, 0.0) == pytest.approx(1e-9 * v, rel=1e-6)
    for lone, unit in zip(split({5: 1e-300}), split({5: 1.0})):
        assert set(lone.entries) == set(unit.entries)
        assert all(lone.entries[k] == pytest.approx(1e-300 * v, rel=1e-12) for k, v in unit.entries.items())


def test_projection_keeps_tiny_coefficients(chain3):
    # project cuts by each coefficient's own terms, whether f has one row of cells or p^2
    def coefficients(entries, finer):
        f = materialize(CoeffGrid(3, 0, entries), chain3)
        f = StepFunction(3, f.support_level, f.resolution_level + finer, np.tile(f.values, 3**finer))
        return project(f, chain3, 0).entries

    for finer in (0, 2):
        mixed = coefficients({0: 1.0, 1: 1e-9}, finer)
        assert set(mixed) == {0, 1} and abs(mixed[0] - 1.0) < 1e-14
        assert mixed[1] == pytest.approx(1e-9, rel=1e-6)
        lone = coefficients({5: 1e-300}, finer)
        assert set(lone) == {5} and lone[5] == pytest.approx(1e-300, rel=1e-12)


def test_zero_phase_round_trips_return_exactly_the_input_keys(rng):
    # zero phases cancel exactly; analysis's rounding dust used to gain a digit per level
    for tree in list(enumerate_trees(5))[::5]:
        system = build_system(tree)
        grid = random_grid(5, 0, 2, rng)
        back = synthesize(analyze(grid, system, 8), system)
        assert set(back.entries) == set(grid.entries), tree.parent
        assert grid_error(grid, back) < 1e-12


def test_p3_chain_returns_its_keys_through_30_levels(chain3, rng):
    # with a digit of dust per level, this grid passed the size cap near 17 levels
    grid = random_grid(3, 0, 2, rng)
    back = synthesize(analyze(grid, chain3, 30), chain3)
    assert set(back.entries) == set(range(9)) and grid_error(grid, back) < 1e-12


def column_twin(grid):
    """The grid rebuilt from its columns alone, with no dict behind it."""
    return CoeffGrid(grid.p, grid.level, keys=grid.keys.copy(), values=grid.values.copy())


def all_grids(pyramid):
    return [pyramid.approx, *(g for level in pyramid.details for g in level)]


def same_grid(a, b):
    return (a.level, a.keys.tobytes(), a.values.tobytes()) == (b.level, b.keys.tobytes(), b.values.tobytes())


def test_bank_never_builds_the_dict(rng):
    system = build_system(RootedTree.validate([0, 0, 1, 2, 3], 5), {(0, 1): 0.3})
    grid = column_twin(random_grid(5, 3, 3, rng))
    pyramid = analyze(grid, system, 2)
    back = synthesize(pyramid, system)
    signal = materialize(back, system)
    projected = project(signal, system, 3)
    for g in (grid, *all_grids(pyramid), back, projected):
        assert "entries" not in vars(g)
    assert grid_error(projected, grid) < 1e-12


@pytest.mark.parametrize("width, n", [(5, None), (2, 1024)])
def test_dict_and_column_grids_give_bit_identical_results(width, n, rng):
    # the benchmark's two shapes: a scalar 5^5-key grid and 49 keys x 1024 signals at p=7
    p, parent = (5, [0, 0, 1, 2, 3]) if n is None else (7, [0, 3, 3, 0, 5, 0, 4])
    system = build_system(RootedTree.validate(parent, p), {(0, 3) if p == 7 else (0, 1): 0.4})
    grid = random_grid(p, 3, width, rng, n=n)
    twin = column_twin(grid)
    assert "entries" not in vars(twin)
    a, b = analyze(grid, system, 3), analyze(twin, system, 3)
    assert all(same_grid(x, y) for x, y in zip(all_grids(a), all_grids(b)))
    assert same_grid(synthesize(a, system), synthesize(b, system))


def test_dict_grid_columns_keep_the_dict_order_and_types():
    scalar = CoeffGrid(3, 0, {4: 1 + 2j, 0: 3.0, 7: -1j})
    assert scalar.keys.dtype == np.int64 and scalar.keys.tolist() == [4, 0, 7]
    assert scalar.values.dtype == complex and scalar.values.tolist() == [1 + 2j, 3.0, -1j]
    vector = CoeffGrid(3, 0, {2: np.array([1.0, 2j]), 5: np.array([0, 1])})  # one row a key
    assert vector.values.dtype == complex and vector.values.tolist() == [[1.0, 2j], [0, 1]]
    empty = CoeffGrid(3, 0, {})
    assert empty.keys.shape == empty.values.shape == (0,)


def test_dict_key_past_int64_is_refused_by_the_size_cap(chain3):
    grid = CoeffGrid(3, 0, {3**45: 1.0})
    for read in (lambda: grid.keys, lambda: analyze_level(grid, chain3), lambda: materialize(grid, chain3)):
        with pytest.raises(SizeCapError):
            read()


@pytest.mark.parametrize("key", [1.5, True, "2"])
def test_dict_key_that_is_no_integer_is_refused(chain3, key):
    # np.fromiter alone reads each of them as key 1 or 2
    grid = CoeffGrid(3, 0, {0: 1.0, key: 1.0, 4.5: 1.0})
    message = re.escape(f"shift key {key!r} is a {type(key).__name__}, not an integer")
    for read in (lambda: grid.keys, lambda: analyze_level(grid, chain3)):
        with pytest.raises(InputError, match=message):
            read()


def test_numpy_integer_dict_keys_are_read():
    grid = CoeffGrid(3, 0, {np.int64(4): 1.0, np.uint8(2): 2.0, 7: 3.0})
    assert grid.keys.dtype == np.int64 and grid.keys.tolist() == [4, 2, 7]


@pytest.mark.parametrize("entries", [{-1: 1.0}, {-1: 1.0, 4: 1.0}])
def test_negative_dict_key_is_refused(chain3, entries):
    # a negative key has no base-p digits, and a table index of -1 would wrap to the last key
    with pytest.raises(InputError, match="outside"):
        analyze_level(CoeffGrid(3, 0, entries), chain3)


def test_energy_is_one_sum_over_the_value_column():
    assert CoeffGrid(3, 0, {}).energy() == 0.0
    assert CoeffGrid(3, 0, {0: 3 + 4j, 2: 1.0}).energy() == 26.0
    batch = CoeffGrid(3, 0, keys=np.array([0, 1]), values=np.array([[1, 2j], [3j, 0]]))
    assert batch.energy().tolist() == [10.0, 4.0]


def test_no_module_but_the_grid_reads_its_dict_view():
    # the bank, the codecs and the CLI run on the columns; `entries` is for callers only
    readers = []
    for path in sorted((Path(__file__).parents[1] / "src" / "vilwav").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "CoeffGrid" and path.name == "transform.py":
                allowed = {id(n) for n in ast.walk(node)}
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "entries" and id(node) not in allowed]
    assert readers == []
