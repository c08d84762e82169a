import json

import numpy as np
import pytest

from vilwav import serialize
from vilwav.cli import EXIT_INPUT, EXIT_MATH, EXIT_OK, main
from vilwav.refinable import StepFunction
from vilwav.tree import RootedTree

from conftest import TREE7_A_PARENT, TREE7_B_PARENT


def write_json(path, payload):
    path.write_text(serialize.dumps(payload))
    return str(path)


@pytest.fixture
def tree_a_file(tmp_path):
    return write_json(tmp_path / "tree_a.json", {"p": 7, "parent": list(TREE7_A_PARENT)})


@pytest.fixture
def chain_file(tmp_path):
    return write_json(tmp_path / "chain.json", {"p": 3, "parent": [0, 0, 1]})


def build_system_file(tmp_path, tree_payload, name="system.json"):
    tree_path = write_json(tmp_path / "tree.json", tree_payload)
    out = tmp_path / name
    assert main(["build", tree_path, "-o", str(out)]) == EXIT_OK
    return str(out)


def test_tree_validate_seven_vertex(tree_a_file, capsys):
    assert main(["tree", "validate", tree_a_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "height=4" in out and "M=2" in out


def test_tree_validate_cycle(tmp_path, capsys):
    path = write_json(tmp_path / "cyc.json", {"p": 3, "parent": [0, 2, 1]})
    assert main(["tree", "validate", path]) == EXIT_MATH
    assert "cycle: 1->2->1" in capsys.readouterr().out


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["tree", "validate", str(tmp_path / "missing.json")]) == EXIT_INPUT


def test_build_star_phi_table(tmp_path):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 0]})
    data = serialize.load_json(sys_file)
    system = serialize.system_from_dict(data)
    assert np.array_equal(system.phi.values, np.array([1, 0, 0], dtype=complex))


def test_build_chain_beta(tmp_path):
    from vilwav.mask import mask_from_tree
    from vilwav.wavelet import solve_beta

    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 1]})
    system = serialize.system_from_dict(serialize.load_json(sys_file))
    expected = solve_beta(mask_from_tree(RootedTree.validate([0, 0, 1], 3)))
    assert np.abs(system.beta - expected).max() == 0.0


def test_build_deterministic(tmp_path):
    a = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 1]}, "a.json")
    b = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 1]}, "b.json")
    assert open(a, "rb").read() == open(b, "rb").read()


def test_build_random_phases_seeded(tmp_path):
    tree_path = write_json(tmp_path / "t.json", {"p": 3, "parent": [0, 0, 1]})
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert (
            main(["build", tree_path, "-o", str(out), "--phases", "random", "--seed", "7"])
            == EXIT_OK
        )
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]
    # a different seed changes the system
    out3 = tmp_path / "r3.json"
    main(["build", tree_path, "-o", str(out3), "--phases", "random", "--seed", "8"])
    assert open(out3, "rb").read() != outs[0]


def test_verify_built_system(tmp_path, capsys):
    sys_file = build_system_file(tmp_path, {"p": 7, "parent": list(TREE7_B_PARENT)})
    assert main(["verify", sys_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "overall: PASS" in out and "gram-orthonormal-family" in out


def test_verify_spectral_level(tmp_path, capsys):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 1]})
    assert main(["verify", sys_file, "--level", "spectral"]) == EXIT_OK
    assert "gram" not in capsys.readouterr().out


def test_verify_corrupted_lambda(tmp_path, capsys):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 1]})
    data = serialize.load_json(sys_file)
    data["lambda"][4] = [1.0, 0.0]  # extra unimodular entry
    write_json(tmp_path / "bad.json", data)
    assert main(["verify", str(tmp_path / "bad.json")]) == EXIT_MATH
    assert "FAIL" in capsys.readouterr().out


def test_verify_all_trees_p3(capsys):
    assert main(["verify", "--all-trees", "3"]) == EXIT_OK
    assert "3 trees at p=3: 3 PASS" in capsys.readouterr().out


def test_verify_all_trees_nonprime_is_input_error(monkeypatch, capsys):
    from vilwav import cli

    def never(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(cli, "enumerate_trees", never)
    assert main(["verify", "--all-trees", "4"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "prime" in err


def test_verify_requires_target(capsys):
    with pytest.raises(SystemExit):
        main(["verify"])


def test_transform_roundtrip(tmp_path, capsys):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 0]})
    rng = np.random.default_rng(5)
    signal = StepFunction(3, -1, 2, rng.normal(size=27) + 1j * rng.normal(size=27))
    sig_file = write_json(tmp_path / "sig.json", serialize.step_to_dict(signal))
    pyr_file = tmp_path / "pyr.json"
    assert (
        main(["transform", "analyze", "--system", sys_file, "--signal", sig_file,
              "--levels", "2", "-o", str(pyr_file)])
        == EXIT_OK
    )
    assert "round-trip error" in capsys.readouterr().out
    rec_file = tmp_path / "rec.json"
    assert (
        main(["transform", "synthesize", "--system", sys_file, "--pyramid", str(pyr_file),
              "-o", str(rec_file)])
        == EXIT_OK
    )
    rec = serialize.step_from_dict(serialize.load_json(str(rec_file)))
    assert rec.p == 3


def test_transform_zero_signal(tmp_path):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 0]})
    signal = StepFunction(3, -1, 1, np.zeros(9))
    sig_file = write_json(tmp_path / "zero.json", serialize.step_to_dict(signal))
    pyr_file = tmp_path / "pyr.json"
    assert (
        main(["transform", "analyze", "--system", sys_file, "--signal", sig_file,
              "-o", str(pyr_file)])
        == EXIT_OK
    )
    pyramid = serialize.pyramid_from_dict(serialize.load_json(str(pyr_file)))
    assert pyramid.energy() == 0.0


def test_transform_too_coarse(tmp_path, capsys):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 1]})
    signal = StepFunction(3, -1, 0, np.ones(3))
    sig_file = write_json(tmp_path / "sig.json", serialize.step_to_dict(signal))
    code = main(["transform", "analyze", "--system", sys_file, "--signal", sig_file,
                 "--level", "1", "-o", str(tmp_path / "p.json")])
    assert code == EXIT_MATH
    assert ">= 2" in capsys.readouterr().out


def test_transform_modulus_mismatch(tmp_path, capsys):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 0]})
    signal = StepFunction(2, -1, 1, np.ones(4))
    sig_file = write_json(tmp_path / "sig2.json", serialize.step_to_dict(signal))
    code = main(["transform", "analyze", "--system", sys_file, "--signal", sig_file,
                 "-o", str(tmp_path / "p.json")])
    assert code == EXIT_INPUT


def test_mask_to_tree_roundtrip(tmp_path, capsys):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 1]})
    out = tmp_path / "tree_back.json"
    assert main(["mask", "to-tree", sys_file, "-o", str(out)]) == EXIT_OK
    tree, _ = serialize.tree_from_dict(serialize.load_json(str(out)))
    assert tree.parent == (0, 0, 1)


def test_mask_to_tree_cycle(tmp_path, capsys):
    lam = [[0.0, 0.0]] * 9
    lam[0] = [1.0, 0.0]
    lam[7] = [1.0, 0.0]  # parent(1) = 2
    lam[5] = [1.0, 0.0]  # parent(2) = 1
    path = write_json(tmp_path / "cyc_mask.json", {"p": 3, "lambda": lam})
    assert main(["mask", "to-tree", path, "-o", str(tmp_path / "o.json")]) == EXIT_MATH
    assert "cycle" in capsys.readouterr().out


def test_mask_to_tree_missing_table(tmp_path, capsys):
    path = write_json(tmp_path / "not_mask.json", {"p": 3, "parent": [0, 0, 1]})
    assert main(["mask", "to-tree", path, "-o", str(tmp_path / "o.json")]) == EXIT_INPUT


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"p": "three", "lambda": [[1.0, 0.0]] * 9}, "three"),
        ({"p": 3, "lambda": [[1.0, 0.0]] * 4}, "length 9"),
        ({"p": 4, "lambda": [[1.0, 0.0]] * 16}, "not prime"),
    ],
)
def test_mask_to_tree_malformed_mask_is_input_error(tmp_path, capsys, payload, message):
    path = write_json(tmp_path / "bad_mask.json", payload)
    assert main(["mask", "to-tree", path, "-o", str(tmp_path / "o.json")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err and "Traceback" not in err


def test_show_json_and_csv(tmp_path, capsys):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 1]})
    capsys.readouterr()  # drop the build progress line
    assert main(["show", "phi", "--system", sys_file, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["phi"]["support_level"] == -1

    assert main(["show", "beta", "--system", sys_file, "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,index,re,im"
    assert len(lines) == 1 + 3 * 9  # beta plus two shifted variants

    assert main(["show", "psi", "--system", sys_file, "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "psi_1" in out and "psi_2" in out
