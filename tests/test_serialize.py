import base64
import gc
import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vilwav import serialize
from vilwav.config import SizeCapError
from vilwav.refinable import StepFunction
from vilwav.transform import CoeffGrid, CoeffPyramid, analyze, shift_key_digits
from vilwav.tree import RootedTree
from vilwav.wavelet import build_system

from conftest import run_keys


def test_tree_roundtrip():
    tree = RootedTree.validate([0, 3, 3, 0, 5, 0, 2], 7)
    phases = {(0, 3): 0.25, (2, 6): 0.75}
    data = serialize.tree_to_dict(tree, phases)
    back_tree, back_phases = serialize.tree_from_dict(data)
    assert back_tree == tree and back_phases == phases


def test_tree_bad_phase_key():
    with pytest.raises(serialize.FormatError, match="phase key"):
        serialize.tree_from_dict({"p": 3, "parent": [0, 0, 1], "phases_turns": {"oops": 0.5}})


def test_step_roundtrip(chain3):
    data = serialize.step_to_dict(chain3.phi)
    back = serialize.step_from_dict(data)
    assert back.support_level == chain3.phi.support_level
    assert back.resolution_level == chain3.phi.resolution_level
    assert np.array_equal(back.values, chain3.phi.values)


def test_step_missing_key():
    with pytest.raises(serialize.FormatError, match="missing key"):
        serialize.step_from_dict({"p": 3, "values": []})


SPECIAL_PARTS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1, 1e-5, 1e16, 1e300]


def zeroed(share, n=2**10, seed=0):
    """n dense values with a share of them set to +0 at random cells."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    values[rng.choice(n, round(share * n), replace=False)] = 0
    return values


def with_parts(values):
    """Complex values assigned part by part, so (0, inf) stays (0, inf)."""
    pairs = np.array(values, dtype=float).reshape(-1, 2)
    out = np.empty(len(pairs), dtype=complex)
    out.real, out.imag = pairs[:, 0], pairs[:, 1]
    return out


# every (re, im) pair of the special parts: among +0 cells (token path) and among 1.0 cells
SPECIAL = [[re, im] for re in SPECIAL_PARTS for im in SPECIAL_PARTS]
STEP_TABLES = {
    "special among zeros": with_parts(SPECIAL + [[0.0, 0.0]] * 156),
    "special among ones": with_parts(SPECIAL + [[1.0, 0.0]] * 28),
    "all zero": np.zeros(2**8, dtype=complex),
    "dense": zeroed(0.0),
    "one -0.0 + 0j": with_parts([[-0.0, 0.0]] + [[0.0, 0.0]] * 255),
    "one 0 - 0.0j": with_parts([[0.0, 0.0]] * 255 + [[0.0, -0.0]]),
    "10% zero": zeroed(0.1),
    "50% zero": zeroed(0.5),
    "81% zero": zeroed(0.81),
    "finite among zeros": zeroed(0.9),
    "NaN and Infinity among zeros": with_parts([[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.5], [0.1, np.nan],
                                                [np.inf, -np.inf]] + [[0.0, 0.0]] * 59),
    "lone -0.0 part among finite cells and zeros": with_parts([[2.5, -0.0], [0.0, 0.0], [1e-5, 3.0]]
                                                              + [[0.0, 0.0]] * 61),
}


@pytest.mark.parametrize("name", sorted(STEP_TABLES))
def test_step_dumps_is_the_dumps_of_step_to_dict(name, tmp_path):
    values = STEP_TABLES[name]
    f = StepFunction(2, -1, int(np.log2(len(values))) - 1, values)
    text = serialize.step_dumps(f)
    assert text == serialize.dumps(serialize.step_to_dict(f))
    assert np.array_equal(serialize.step_from_dict(json.loads(text)).values, values, equal_nan=True)
    path = tmp_path / "step.json"
    path.write_text(text)
    assert serialize.load_step(str(path)).values.tobytes() == values.tobytes()


READ_PARTS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, 0.1]


@given(st.sampled_from([0.0, 0.1, 0.5, 0.81, 1.0]), st.integers(0, 2**32 - 1))
def test_load_step_reads_the_bits_load_json_gives(tmp_path_factory, share, seed):
    # +0 cells among cells whose parts mix -0.0, nan, infinities, subnormals, 1e300 and 0.0
    rng = np.random.default_rng(seed)
    n = 3**4
    parts = rng.choice(READ_PARTS + [0.0], size=(n, 2))
    parts[rng.choice(n, round(share * n), replace=False)] = 0.0
    f = StepFunction(3, -1, 3, with_parts(parts))
    path = tmp_path_factory.mktemp("step") / "step.json"
    for text in (serialize.step_dumps(f), json.dumps(serialize.step_to_dict(f))):
        path.write_text(text)
        want = serialize.step_from_dict(serialize.load_json(str(path)))
        got = serialize.load_step(str(path))
        assert (got.p, got.support_level, got.resolution_level) == (3, -1, 3)
        assert got.values.tobytes() == want.values.tobytes()


def test_load_step_converts_only_the_cells_that_are_not_the_zero_token(tmp_path, monkeypatch):
    values = zeroed(0.9)
    path = tmp_path / "step.json"
    path.write_text(serialize.step_dumps(StepFunction(2, -1, 9, values)))
    sizes = []
    real_cpx_in = serialize._cpx_in

    def cpx_in(pairs):
        sizes.append(len(pairs))
        return real_cpx_in(pairs)

    monkeypatch.setattr(serialize, "_cpx_in", cpx_in)
    assert serialize.load_step(str(path)).values.tobytes() == values.tobytes()
    assert sizes == [np.count_nonzero(values)]


@pytest.mark.parametrize("share, swapped", [(0.0, False), (0.1, False), (0.5, True)])
def test_load_step_swaps_only_where_the_tokens_fill_a_tenth_of_the_text(tmp_path, monkeypatch, share, swapped):
    values = zeroed(share)
    path = tmp_path / "step.json"
    path.write_text(serialize.step_dumps(StepFunction(2, -1, 9, values)))
    calls = []
    real_cpx_in_nulls = serialize._cpx_in_nulls
    monkeypatch.setattr(serialize, "_cpx_in_nulls", lambda cells: calls.append(1) or real_cpx_in_nulls(cells))
    assert serialize.load_step(str(path)).values.tobytes() == values.tobytes()
    assert bool(calls) == swapped


def test_system_roundtrip(chain3):
    data = serialize.system_to_dict(chain3)
    back = serialize.system_from_dict(data)
    assert back.tree == chain3.tree and back.M == chain3.M
    assert np.array_equal(back.mask.lam, chain3.mask.lam)
    assert np.array_equal(back.beta, chain3.beta)
    for a, b in zip(back.psi, chain3.psi):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(back.phi_hat.values, chain3.phi_hat.values)


def test_system_file_keeps_beta_only_and_rederives_beta_l_bit_identically():
    system = build_system(RootedTree.validate([0, 0, 1, 1, 2], 5), {(0, 1): 0.3, (1, 3): 0.7})
    data = json.loads(serialize.dumps(serialize.system_to_dict(system)))
    assert set(data) == {"M", "lambda", "p", "parent"}
    back = serialize.system_from_dict(data)
    assert len(back.beta_l) == 4
    assert all(np.array_equal(a, b) for a, b in zip(back.beta_l, system.beta_l))

    # older files also stored the tables; they are not read, and the rebuilt ones equal them
    old = json.loads(serialize.dumps(dict(
        data,
        phi=serialize.step_to_dict(system.phi),
        psi=[serialize.step_to_dict(f) for f in system.psi],
        phi_hat={"band": system.phi_hat.band, "values": serialize._cpx_out(system.phi_hat.values)},
        beta=serialize._cpx_out(system.beta),
        beta_l=[serialize._cpx_out(bl) for bl in system.beta_l],
    )))
    back = serialize.system_from_dict(old)
    assert np.array_equal(back.phi.values, serialize.step_from_dict(old["phi"]).values)
    assert all(np.array_equal(a.values, serialize.step_from_dict(b).values) for a, b in zip(back.psi, old["psi"]))
    assert np.array_equal(back.phi_hat.values, serialize._cpx_in(old["phi_hat"]["values"]))
    assert np.array_equal(back.beta, serialize._cpx_in(old["beta"]))
    assert all(np.array_equal(a, serialize._cpx_in(b)) for a, b in zip(back.beta_l, old["beta_l"]))


def test_system_roundtrip_is_json_stable(chain3):
    text = serialize.dumps(serialize.system_to_dict(chain3))
    again = serialize.dumps(serialize.system_to_dict(serialize.system_from_dict(json.loads(text))))
    assert text == again


def test_pyramid_roundtrip(chain3, rng):
    grid = CoeffGrid(3, 0, {k: complex(rng.normal(), rng.normal()) for k in range(9)})
    pyramid = analyze(grid, chain3, 2)
    back = serialize.pyramid_from_dict(serialize.pyramid_to_dict(pyramid))
    assert isinstance(back, CoeffPyramid)
    assert back.approx.level == pyramid.approx.level
    assert back.energy() == pytest.approx(pyramid.energy(), abs=1e-12)
    for key, v in pyramid.approx.entries.items():
        assert back.approx.entries[key] == pytest.approx(v, abs=1e-15)


def test_load_json_errors(tmp_path):
    with pytest.raises(serialize.FormatError, match="cannot read"):
        serialize.load_json(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(serialize.FormatError, match="malformed"):
        serialize.load_json(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2,3]")
    with pytest.raises(serialize.FormatError, match="object expected"):
        serialize.load_json(str(arr))


def test_cpx_in_rejects_garbage():
    with pytest.raises(serialize.FormatError, match="complex"):
        serialize._cpx_in([["a", "b"]])


def test_dumps_deterministic():
    d = {"b": 1, "a": [2, 3]}
    assert serialize.dumps(d) == serialize.dumps({"a": [2, 3], "b": 1})


def test_haar_system_serializes(tmp_path):
    system = build_system(RootedTree.validate([0, 0], 2))
    path = tmp_path / "haar.json"
    path.write_text(serialize.dumps(serialize.system_to_dict(system)))
    back = serialize.system_from_dict(serialize.load_json(str(path)))
    assert np.array_equal(back.phi.values, system.phi.values)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0]


def test_cpx_codecs_are_bit_exact():
    values = np.array([complex(re, im) for re in SPECIAL for im in SPECIAL])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # re + 1j * im would warn at (0, inf), and give (nan, inf)
        direct = serialize._cpx_in(serialize._cpx_out(values))
        text = serialize.dumps({"v": serialize._cpx_out(values)})
        through_json = serialize._cpx_in(json.loads(text)["v"])
    assert direct.tobytes() == values.tobytes()
    assert through_json.tobytes() == values.tobytes()


def test_cpx_codecs_keep_plain_types():
    assert serialize._cpx_out([1 + 2j, -0.5]) == [[1.0, 2.0], [-0.5, 0.0]]
    assert all(type(x) is float for pair in serialize._cpx_out([1 + 2j]) for x in pair)
    assert serialize._cpx_out([]) == []
    assert serialize._cpx_in([]).shape == (0,)
    assert serialize._cpx_in([[1, 2], [True, 0.5]]).tolist() == [1 + 2j, 1 + 0.5j]


@pytest.mark.parametrize("pairs", [[["1.5", "2"]], [[1.0, 2.0, 3.0]], [1.0, 2.0], [[1.0, 2.0], 1.0],
                                   [[None, 1.0]], [[]], "ab", 5])
def test_cpx_in_refuses_what_is_no_list_of_number_pairs(pairs):
    with pytest.raises(serialize.FormatError, match="complex"):
        serialize._cpx_in(pairs)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pyramid_listing_spells_each_key_in_digits(p):
    keys = [0, p - 1, p, p * p - 1, p**3]
    grids = [CoeffGrid(p, 1, {k: complex(k, j - k) for k in reversed(keys)}) for j in range(p)]
    pyramid = CoeffPyramid(p, grids[0], (tuple(grids[1:]),))
    # maximal runs of consecutive keys: 0 .. 3 and 8 at p = 2, else 0, p - 1 .. p, p^2 - 1, p^3
    runs = {"first": [0, 8], "count": [4, 1]} if p == 2 else {"first": [0, p - 1, p * p - 1, p**3],
                                                             "count": [1, 2, 1, 1]}

    def listed(j):
        values = b"".join(struct.pack("<dd", k, j - k) for k in keys)
        return {"level": 1, "keys": runs, "values": base64.b64encode(values).decode()}

    want = {"p": p, "approx": listed(0), "details": [[listed(j) for j in range(1, p)]]}
    assert serialize.pyramid_to_dict(pyramid) == want
    # the file's p spells each key back in digits, from position -1 downward
    assert [list(shift_key_digits(k, p)) for k in run_keys(want["approx"]["keys"])] == [
        [], [p - 1], [0, 1], [p - 1, p - 1], [0, 0, 0, 1]]
    back = serialize.pyramid_from_dict(json.loads(serialize.dumps(want)))
    assert back.approx.entries == grids[0].entries
    assert all(a.entries == b.entries for a, b in zip(back.details[0], grids[1:]))


def test_grid_dict_is_a_level_and_two_columns_in_ascending_key_order(chain3, rng):
    grid = CoeffGrid(3, 0, {k: complex(rng.normal(), rng.normal()) for k in rng.permutation(81).tolist()})
    pyramid = serialize.pyramid_to_dict(analyze(grid, chain3, 2))
    for g in [pyramid["approx"], *(g for level in pyramid["details"] for g in level)]:
        assert set(g) == {"level", "keys", "values"} and set(g["keys"]) == {"first", "count"}
        first, count = g["keys"]["first"], g["keys"]["count"]
        assert all(type(k) is int for k in first + count) and len(first) == len(count)
        # maximal runs: each holds a key, and a gap of at least one key parts it from the next
        assert min(count) >= 1 and all(b > a + n for a, n, b in zip(first, count, first[1:]))
        assert type(g["values"]) is str and len(base64.b64decode(g["values"], validate=True)) == 16 * sum(count)


def test_benchmark_shaped_pyramid_survives_a_file_round_trip(tmp_path, rng):
    # the filter-bank benchmark's cascade pyramid: the p=5 chain, 5^7 keys, 3 levels
    system = build_system(RootedTree.validate([0, 0, 1, 2, 3], 5), {(0, 1): 0.3, (2, 3): 0.6})
    grid = CoeffGrid(5, 0, dict(enumerate((rng.normal(size=5**7) + 1j * rng.normal(size=5**7)).tolist())))
    pyramid = analyze(grid, system, 3)
    path = tmp_path / "pyramid.json"
    path.write_text(serialize.dumps(serialize.pyramid_to_dict(pyramid)))
    # 16 value bytes a key in base64, about 21 bytes, and a few runs of keys a grid; with a key
    # list it was 2.15 MB, and as exact decimal text 3.86 MB
    assert path.stat().st_size < 2_200_000
    back = serialize.pyramid_from_dict(serialize.load_json(str(path)))
    for a, b in zip([back.approx, *sum(back.details, ())], [pyramid.approx, *sum(pyramid.details, ())]):
        assert (a.level, a.entries) == (b.level, b.entries)


def test_pyramid_values_are_bit_exact():
    # a quiet nan with payload 0x1234 and a negative one, besides SPECIAL's
    # +-0, +-inf, +-5e-324 and +-1e308
    nans = [struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in (0x7FF8000000001234, 0xFFF8000000000001)]
    parts = np.array(SPECIAL + nans)
    values = np.empty(len(parts) ** 2, dtype=complex)
    values.real, values.imag = np.repeat(parts, len(parts)), np.tile(parts, len(parts))
    grid = CoeffGrid(2, 0, dict(enumerate(values.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = serialize.dumps(serialize.pyramid_to_dict(CoeffPyramid(2, grid, ((grid,),))))
        back = serialize.pyramid_from_dict(json.loads(text))
    for g in (back.approx, back.details[0][0]):
        assert np.array(list(g.entries.values())).tobytes() == values.tobytes()
    one = serialize.grid_to_dict(CoeffGrid(2, 0, {0: 1 + 2j}))
    assert base64.b64decode(one["values"]) == struct.pack("<dd", 1.0, 2.0)


@pytest.mark.parametrize("shifts, message", [
    ([1.5], "integers"),
    (["2"], "integers"),
    ([True], "integers"),
    ([1.0], "integers"),
    ("12", "integers"),
    ([0, 0], "share the shift key 0"),
    ([5, 1, 5], "share the shift key 5"),
    ([-1], "outside"),
    ([0, -1], "outside"),
    ([[0, 1]], "integers"),
])
def test_grid_from_dict_refuses_bad_shifts(shifts, message):
    # each shift a run of one key
    data = {"level": 0, "keys": {"first": shifts, "count": [1] * len(shifts)},
            "values": base64.b64encode(bytes(16 * len(shifts))).decode()}
    with pytest.raises(serialize.FormatError, match=message):
        serialize.grid_from_dict(data, 3)


@pytest.mark.parametrize("first, count, message", [
    ([0, 1], [2, 1], "share the shift key 1"),
    ([3, 2], [1, 2], "share the shift key 3"),
    ([2, 0], [1, 2], "must ascend: a run from 0 follows one from 2"),
    ([0, 5], [1, 0], "holds no key"),
    ([0], [-1], "holds no key"),
    ([0], [2], "2 shift keys for 48 value bytes"),
    ([0], [10**18], "1000000000000000000 shift keys for 48 value bytes"),
    ([0, 1, 2], [1, 2], "3 first keys for 2 counts"),
    ([0], [True], "integers"),
    ([0], [3.0], "integers"),
    ([0], "3", "integers"),
])
def test_grid_from_dict_refuses_bad_runs(first, count, message):
    data = {"level": 0, "keys": {"first": first, "count": count}, "values": base64.b64encode(bytes(48)).decode()}
    with pytest.raises(serialize.FormatError, match=message):
        serialize.grid_from_dict(data, 3)


def test_grid_from_dict_reads_adjacent_runs_and_refuses_a_key_list():
    values = base64.b64encode(bytes(48)).decode()
    grid = serialize.grid_from_dict({"level": 0, "keys": {"first": [0, 2], "count": [2, 1]}, "values": values}, 3)
    assert grid.keys.tolist() == [0, 1, 2]
    with pytest.raises(serialize.FormatError, match="a layout no longer read"):
        serialize.grid_from_dict({"level": 0, "keys": [0, 1, 2], "values": values}, 3)


def test_wide_shift_is_refused_before_its_key_could_wrap(monkeypatch):
    def grid(key, count=1):
        return {"level": 0, "keys": {"first": [key], "count": [count]},
                "values": base64.b64encode(struct.pack("<dd", 1.0, 0.0) * count).decode()}

    for key in (3**39, 3**40, 2**70):  # each table > 2^63; the first key itself fits an int64
        with pytest.raises(SizeCapError, match="exceeds cap"):
            serialize.grid_from_dict(grid(key), 3)
    monkeypatch.setenv("VILWAV_SIZE_CAP", str(10**30))
    for key in (3**39, 3**40, 2**70):
        with pytest.raises(SizeCapError, match="int64"):
            serialize.grid_from_dict(grid(key), 3)
    assert serialize.grid_from_dict(grid(2 * 3**38), 3).entries == {2 * 3**38: 1.0}
    # a run's last key counts: 3^39 has 40 digits, and 3^40 passes int64
    assert serialize.grid_from_dict(grid(3**39 - 2, 2), 3).keys.tolist() == [3**39 - 2, 3**39 - 1]
    with pytest.raises(SizeCapError, match="int64"):
        serialize.grid_from_dict(grid(3**39 - 1, 2), 3)


def test_codecs_never_build_the_dict(chain3, rng):
    grid = CoeffGrid(3, 0, keys=np.arange(27), values=rng.normal(size=27) + 1j * rng.normal(size=27))
    pyramid = analyze(grid, chain3, 2)
    data = json.loads(serialize.dumps(serialize.pyramid_to_dict(pyramid)))
    back = serialize.pyramid_from_dict(data)
    grids = [grid, pyramid.approx, back.approx, *sum(pyramid.details + back.details, ())]
    serialize.grid_to_dict(grid)
    assert all("entries" not in vars(g) for g in grids)
    # the file's keys column is the grid's, as int64 with no copy through a dict
    assert back.approx.keys.dtype == np.int64 and back.approx.keys.tolist() == run_keys(data["approx"]["keys"])


@pytest.mark.parametrize("enabled", [True, False])
def test_readers_and_writers_restore_the_collector_state(tmp_path, monkeypatch, enabled):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(serialize.dumps({"p": 3, "parent": [0, 0, 1]}))
    bad.write_text("{not json")
    seen = []
    real_loads = json.loads

    def loads(text):
        seen.append(gc.isenabled())
        return real_loads(text)

    monkeypatch.setattr(serialize.json, "loads", loads)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        serialize.tree_from_dict(serialize.load_json(str(good)))
        after_read = gc.isenabled()
        with pytest.raises(serialize.FormatError):
            serialize.load_json(str(bad))
        after_bad_json = gc.isenabled()
        with pytest.raises(serialize.FormatError):
            serialize.pyramid_from_dict({"p": 3, "approx": {"level": 0, "keys": [1.5], "values": []}})
        after_bad_pyramid = gc.isenabled()
        serialize.dumps(serialize.tree_to_dict(serialize.tree_from_dict({"p": 3, "parent": [0, 0, 1]})[0]))
        after_write = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False, False]
    assert [after_read, after_bad_json, after_bad_pyramid, after_write] == [enabled] * 4
