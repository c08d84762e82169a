import json

import numpy as np
import pytest

from vilwav import serialize
from vilwav.transform import CoeffGrid, CoeffPyramid, analyze
from vilwav.tree import RootedTree
from vilwav.wavelet import build_system


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
    assert "beta_l" not in data
    back = serialize.system_from_dict(data)
    assert len(back.beta_l) == 4
    assert all(np.array_equal(a, b) for a, b in zip(back.beta_l, system.beta_l))


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
