import base64
import copy
import dataclasses
import functools
import json
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vilwav
from vilwav import cli, serialize, transform, wavelet
from vilwav.cli import EXIT_INPUT, EXIT_MATH, EXIT_OK, main
from vilwav.mask import MaskTable, mask_from_tree
from vilwav.refinable import StepFunction, embed
from vilwav.tree import RootedTree
from vilwav.wavelet import CheckResult, build_system, verify_wavelet_system

from conftest import (
    P11_M5_PARENT, TREE7_A_PARENT, TREE7_B_PARENT, dense_gram_deviation, dense_table, run_keys, tamper_family,
    tampered,
)


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


def test_verify_corrupted_lambda(tmp_path, capsys):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 1]})
    data = serialize.load_json(sys_file)
    data["lambda"][4] = [1.0, 0.0]  # extra unimodular entry
    write_json(tmp_path / "bad.json", data)
    assert main(["verify", str(tmp_path / "bad.json")]) == EXIT_MATH
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("value", [1e200, float("nan"), float("inf")])
@pytest.mark.parametrize("cell", [1, 4])  # the chain's edge 0->1, and a cell off its tree
def test_verify_extreme_lambda_cell_fails_without_warnings(tmp_path, capsys, value, cell):
    data = serialize.load_json(build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 1]}))
    data["lambda"][cell] = [value, 0.0]
    bad = write_json(tmp_path / "bad.json", data)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the tables rebuilt from this mask overflow
        assert main(["verify", bad]) == EXIT_MATH
    out, err = capsys.readouterr()
    assert any(line.startswith("FAIL ") for line in out.splitlines()) and err == ""


def verify_corrupted(tmp_path, monkeypatch, corrupt):
    """Exit code of `verify` on the p=3 chain's file, whose system corrupt changes after reading.

    A file holds only the tree and mask, so tables that disagree with them are made in memory.
    """
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 1]})
    system = serialize.system_from_dict(serialize.load_json(sys_file))
    monkeypatch.setattr(cli.serialize, "system_from_dict", lambda data: corrupt(system))
    return main(["verify", sys_file])


def with_mask_cell(system, value):
    """system with lambda_2 set to value and beta still the true mask's: psi_1's frequency route
    is off at its cell 5 (a = 2, b = 1), and psi_2's at cell 8, which comes after it."""
    lam = system.mask.lam.copy()
    lam[2] = value
    return tampered(system, mask=MaskTable(system.p, lam))


def with_phi_hat(system, change):
    """system with phi_hat replaced by change(phi_hat), and phi and psi still the tables the true phi_hat gives."""
    return tampered(system, phi_hat=change(system.phi_hat), phi=system.phi, psi=system.psi)


def test_verify_nan_psi_cell_fails_two_route(tmp_path, capsys, monkeypatch):
    # Python's max(0.0, nan) is 0.0, so the check must not use it
    assert verify_corrupted(tmp_path, monkeypatch, lambda s: with_mask_cell(s, np.nan)) == EXIT_MATH
    line = next(x for x in capsys.readouterr().out.splitlines() if "psi-two-route" in x)
    assert line.startswith("FAIL") and "nan" in line and line.endswith("at wavelet 1, cell 5")


def test_verify_huge_psi_cell_fails_without_warnings(tmp_path, capsys, monkeypatch):
    # psi-two-route reads beta_l and the mask; the Gram check reads the spectra (the test below)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_corrupted(tmp_path, monkeypatch, lambda s: with_mask_cell(s, 1e200)) == EXIT_MATH
    out, err = capsys.readouterr()
    line = next(x for x in out.splitlines() if "psi-two-route" in x)
    assert line.startswith("FAIL") and line.endswith("at wavelet 1, cell 5") and err == ""


def test_verify_huge_wavelet_coefficient_fails_the_gram_without_warnings(tmp_path, capsys, monkeypatch):
    def huge(keys, table):
        table[1, np.flatnonzero(table[1])[0]] = 1e200

    handed = tamper_family(monkeypatch, huge)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_corrupted(tmp_path, monkeypatch, lambda s: s) == EXIT_MATH
    out, err = capsys.readouterr()
    line = next(x for x in out.splitlines() if "gram-orthonormal-family" in x)
    # |1e200|^2 overflows; whether the product's real part comes out inf or nan is the BLAS's choice
    assert re.fullmatch(r"FAIL +gram-orthonormal-family +max_dev=(inf|nan) at functions \(1, 1\), shift \(0, 0\)", line)
    assert err == ""
    with np.errstate(over="ignore", invalid="ignore"):  # the dense Gram overflows too
        assert not np.isfinite(dense_gram_deviation(3, *handed[-1]))


def test_verify_report_says_where_a_check_fails(tmp_path, capsys, monkeypatch):
    def drop_trivial_coset(spec):
        return dataclasses.replace(spec, values=np.where(spec.keys == 0, 0.0, spec.values))

    code = verify_corrupted(tmp_path, monkeypatch, lambda s: with_phi_hat(s, drop_trivial_coset))
    assert code == EXIT_MATH
    out = capsys.readouterr().out
    lines = {line.split()[1]: line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))}
    assert lines["spectrum-elementary"].endswith("at support is 2 cosets with 2 distinct residues, "
                                                 "wanted p=3 of each")
    assert lines["spectrum-residue-sums"].endswith("at residue 0")
    assert " at " not in lines["mask-row-sums"]


def test_verify_dense_phi_hat_fails_without_traceback(tmp_path, capsys, monkeypatch):
    # every coset of the spectrum nonzero: the refinement identity and the family read all of them
    def fill(spec):
        return dense_table(spec.p, spec.band, np.full(spec.p ** (spec.band + 1), 0.5 + 0.25j))

    code = verify_corrupted(tmp_path, monkeypatch, lambda s: with_phi_hat(s, fill))
    assert code == EXIT_MATH
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    failed = {line.split()[1]: line for line in out.splitlines() if line.startswith("FAIL ")}
    assert {"spectrum-elementary", "refinement-cosets"} <= set(failed)
    # at coset x < 9 with lambda at x mod 9 zero, or x >= 9 with it one, one side of the identity
    # is 0 and the other 0.5 + 0.25i; rounding picks among them
    at = re.fullmatch(r"FAIL +refinement-cosets +max_dev=5\.590e-01 at coset (\d+)", failed["refinement-cosets"])
    lam = mask_from_tree(RootedTree.validate([0, 0, 1], 3)).lam
    assert at and (lam[int(at[1]) % 9] == 0) == (int(at[1]) < 9)


def test_p7_chain_file_is_its_tree_and_mask_and_verifies(tmp_path, capsys):
    sys_file = build_system_file(tmp_path, {"p": 7, "parent": [0, 0, 1, 2, 3, 4, 5]})
    assert os.path.getsize(sys_file) < 1024
    assert set(serialize.load_json(sys_file)) == {"M", "lambda", "p", "parent"}
    capsys.readouterr()
    assert main(["verify", sys_file]) == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10 and all(line.startswith("PASS ") for line in lines)


def chain_parent(p):
    """The chain 0 -> 1 -> ... -> p - 1, the deepest tree at p: M = p - 2."""
    return [0, *range(p - 1)]


def test_p11_and_p13_chains_fully_verify_and_the_p17_chain_is_refused(no_tables, tmp_path, capsys, monkeypatch):
    # and a p = 11 tree of M = 5; the chains have M = 9 and 11, and their spectra are 11 and 13 keys
    monkeypatch.delenv("VILWAV_SIZE_CAP", raising=False)
    for p, parent in [(11, list(P11_M5_PARENT)), (11, chain_parent(11)), (13, chain_parent(13))]:
        sys_file = build_system_file(tmp_path, {"p": p, "parent": parent})
        capsys.readouterr()
        assert main(["verify", sys_file]) == EXIT_OK
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert len(lines) == 10 and all(line.startswith("PASS ") for line in lines)
    # the p = 17 chain's spectrum keys pass int64: its file, written out by hand, is refused
    tree = RootedTree.validate(chain_parent(17), 17)
    payload = {"p": 17, "M": 15, "parent": chain_parent(17), "lambda": serialize._cpx_out(mask_from_tree(tree).lam)}
    code, line, _ = run_one_line(["verify", write_json(tmp_path / "p17.json", payload)], capsys)
    assert code == EXIT_MATH and line.startswith("failed: ") and "16 digits at p=17 do not fit an int64" in line
    # with 1 a leaf of the root, M = 14: the spectrum fits, and the wavelets' keys do not
    sys_file = build_system_file(tmp_path, {"p": 17, "parent": [0, 0, *range(3, 17), 0]})
    code, line, _ = run_one_line(["verify", sys_file], capsys)
    assert code == EXIT_MATH and line.startswith("failed: ") and "16 digits at p=17 do not fit an int64" in line


@pytest.mark.parametrize("spectral_only", [True, False], ids=["spectral", "full"])
def test_lambda_0_off_1_fails_refinement_cosets_at_both_levels(tmp_path, capsys, monkeypatch, spectral_only):
    # phi_hat and every other check read lambda_0 only through its modulus; the root's
    # coset 0 maps to itself through it, off by |e^(0.6 pi i) - 1| = 2 sin(0.3 pi).
    # verify runs every check; the library's spectral subset, which the deep7 benchmark runs, catches it too
    monkeypatch.setattr(cli, "verify_wavelet_system",
                        functools.partial(verify_wavelet_system, spectral_only=spectral_only))
    data = serialize.load_json(build_system_file(tmp_path, {"p": 5, "parent": [0, 4, 1, 2, 0]}))
    data["lambda"][0] = [float(np.cos(0.6 * np.pi)), float(np.sin(0.6 * np.pi))]
    bad = write_json(tmp_path / "lambda0.json", data)
    capsys.readouterr()
    assert main(["verify", bad]) == EXIT_MATH
    out, err = capsys.readouterr()
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(failed) == 1 and re.fullmatch(r"FAIL +refinement-cosets +max_dev=1\.618e\+00 at coset 0", failed[0])
    assert "Traceback" not in out + err


@pytest.mark.parametrize("cap", [None, str(10**30)], ids=["default cap", "cap 10^30"])
def test_p17_chain_build_is_refused_where_its_spectrum_keys_pass_int64(cap, tmp_path, capsys, monkeypatch):
    # 17^16 cosets at M = 15 pass int64, so no larger size cap admits the keys
    if cap is None:
        monkeypatch.delenv("VILWAV_SIZE_CAP", raising=False)
    else:
        monkeypatch.setenv("VILWAV_SIZE_CAP", cap)
    tree_path = write_json(tmp_path / "tree.json", {"p": 17, "parent": chain_parent(17)})
    out = tmp_path / "system.json"
    code, line, _ = run_one_line(["build", tree_path, "-o", str(out)], capsys)
    assert code == EXIT_MATH and line.startswith("failed: ") and "int64" in line
    assert not out.exists()


PHASED_CHAIN3 = {"p": 3, "parent": [0, 0, 1], "phases_turns": {"0->1": 0.1, "1->2": 0.2}}


def test_verify_tight_tol_fails(tmp_path, capsys):
    # the zero-phase chain's Gram deviation is exactly 0; with these phases it is rounding, 7.8e-17
    sys_file = build_system_file(tmp_path, PHASED_CHAIN3)
    assert main(["--tol", "1e-30", "verify", sys_file]) == EXIT_MATH
    assert "FAIL  gram-orthonormal-family" in capsys.readouterr().out
    assert main(["--tol", "1e-30", "verify", "--all-trees", "3"]) == EXIT_MATH


def test_verify_tol_fails_a_spectral_family_just_past_it(tmp_path, capsys, monkeypatch):
    # psi_1 scaled by 1 + 1e-12 is off by 2e-12 against itself, unshifted
    def scale(keys, table):
        table[1] *= 1 + 1e-12

    handed = tamper_family(monkeypatch, scale)
    sys_file = build_system_file(tmp_path, PHASED_CHAIN3)
    assert main(["verify", sys_file]) == EXIT_MATH
    line = next(x for x in capsys.readouterr().out.splitlines() if "gram-orthonormal-family" in x)
    assert line.startswith("FAIL") and line.endswith("at functions (1, 1), shift (0, 0)")
    assert main(["--tol", "1e-11", "verify", sys_file]) == EXIT_OK
    system = serialize.system_from_dict(serialize.load_json(sys_file))
    gram = {c.name: c for c in verify_wavelet_system(system)}["gram-orthonormal-family"]
    assert abs(gram.max_deviation - dense_gram_deviation(3, *handed[-1])) < 1e-15


def test_verify_loose_tol_keeps_the_support(tmp_path, capsys):
    # the elementary check's support is the moduli above 0.5, whatever the tolerance
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 1]})
    assert main(["--tol", "1", "verify", sys_file]) == EXIT_OK
    assert "PASS  spectrum-elementary" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("handler, command", [
    ("cmd_verify", ["verify", "--all-trees", "3"]),
    ("cmd_mask_to_tree", ["mask", "to-tree", "m.json", "-o", "t.json"]),
])
def test_tol_must_be_finite_and_positive(monkeypatch, capsys, tol, handler, command):
    monkeypatch.setattr(cli, handler, never)
    code, _, err = run_one_line(["--tol", tol, *command], capsys)
    assert code == EXIT_INPUT and err.startswith("input error: --tol")


def test_handler_is_looked_up_when_main_runs(monkeypatch, tmp_path, capsys):
    # the shared parser names its handlers, so a patch made after it is built takes
    # effect, and the real handler runs again once the patch is undone
    missing = str(tmp_path / "missing.json")
    cli.build_parser()
    with monkeypatch.context() as m:
        m.setattr(cli, "cmd_show", never)
        with pytest.raises(AssertionError, match="sweep work started"):
            main(["show", "phi", "--system", missing])
    assert main(["show", "phi", "--system", missing]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error:")


def test_stored_beta_l_is_not_read(p3_payloads, tmp_path):
    # older files carry beta_l beside the other tables; no table key is read
    system = serialize.system_from_dict(p3_payloads["system"])
    old = dict(p3_payloads["system"], beta_l=[serialize._cpx_out(bl) for bl in system.beta_l])
    bad = copy.deepcopy(old)
    bad["beta_l"][0][1] = [5.0, 0.0]
    pyramid = write_json(tmp_path / "pyramid.json", p3_payloads["pyramid"])
    signals = []
    for name, payload in (("old", old), ("bad", bad)):
        out = tmp_path / f"{name}-signal.json"
        argv = ["transform", "synthesize", "--system", write_json(tmp_path / f"{name}.json", payload),
                "--pyramid", pyramid, "-o", str(out)]
        assert main(argv) == EXIT_OK
        signals.append(out.read_bytes())
    assert signals[0] == signals[1]


def test_verify_all_trees_p3(capsys):
    for draws in ([], ["--draws", "1"]):
        assert main(["verify", "--all-trees", "3", *draws]) == EXIT_OK
        assert "3 trees at p=3: 3 PASS" in capsys.readouterr().out


def test_failed_round_trip_is_a_fail_line(capsys):
    # |e^(2 pi i theta)| is 1 only to about 1e-16, so at --tol 1e-30 mask_to_tree refuses
    # a random-phase mask; the sweep reports that as the draw's failing check
    assert main(["--tol", "1e-30", "verify", "--all-trees", "3", "--draws", "1"]) == EXIT_MATH
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("3 trees at p=3: 0 PASS, 3 FAIL")
    drawn = [line for line in out if line.startswith("FAIL ") and " draw=1 " in line]
    assert len(drawn) == 3 and any(line.endswith(",mask-to-tree") for line in drawn)
    assert not any(line.startswith("failed:") for line in out)


def test_verify_all_trees_reports_progress_on_stderr(monkeypatch, capsys):
    monkeypatch.setattr(cli, "PROGRESS_EVERY_S", 0.0)
    assert main(["verify", "--all-trees", "3"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.startswith("3 trees at p=3: 3 PASS, 0 FAIL, worst deviation ") and out.count("\n") == 1
    done = [re.fullmatch(r"(\d)/3 trees, 0 FAIL, \d+s", line) for line in err.splitlines()]
    assert [m and m[1] for m in done] == ["1", "2", "3"]


def test_verify_all_trees_passes_every_tree_and_draw(capsys):
    for p, draws, trees in [(5, 0, 125), (5, 2, 125), (3, 3, 3)]:
        assert main(["verify", "--all-trees", str(p), "--draws", str(draws)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(f"{trees} trees at p={p}: {trees} PASS, 0 FAIL, worst deviation ")
        assert out.count("\n") == 1


@pytest.mark.parametrize("flag, argv", [("--jobs", ["--all-trees", "3", "--jobs", "2"]),
                                        ("--level", ["--level", "spectral", "system.json"])],
                         ids=["jobs", "level"])
def test_removed_verify_flags_are_usage_errors(no_sweep, capsys, flag, argv):
    # verify has one check set and runs in one process
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", *argv])
    out, err = capsys.readouterr()
    assert exit_info.value.code == EXIT_INPUT and out == ""
    usage, error = err.splitlines()  # and no traceback
    assert usage.startswith("usage: vilwav ") and error.startswith(f"vilwav: error: unrecognized arguments: {flag}")


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


def test_transform_roundtrip_bound_scales_with_the_signal(tmp_path, capsys, monkeypatch):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 0]})
    rng = np.random.default_rng(5)
    values = rng.normal(size=27) + 1j * rng.normal(size=27)

    def analyze(system_file, scale):
        signal = StepFunction(3, -1, 2, scale * values)
        sig_file = write_json(tmp_path / "sig.json", serialize.step_to_dict(signal))
        return main(["transform", "analyze", "--system", system_file, "--signal", sig_file,
                     "--levels", "2", "-o", str(tmp_path / "pyr.json")])

    # rounding error grows with the amplitude; a correct transform passes at any scale
    for scale in (1.0, 1e5, 1e8):
        assert analyze(sys_file, scale) == EXIT_OK, scale
    # a beta that no longer pairs with its shifts breaks the round trip at every scale
    system = serialize.system_from_dict(serialize.load_json(sys_file))
    beta = system.beta.copy()
    beta[1] *= 0.9
    bad = tampered(system, beta=beta)
    monkeypatch.setattr(cli.serialize, "system_from_dict", lambda data: bad)
    for scale in (1.0, 1e8):
        assert analyze(sys_file, scale) == EXIT_MATH, scale
    capsys.readouterr()


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


# -- the exit-code contract: 1 for a mathematical "no", 2 for unreadable input --


@pytest.fixture(scope="module")
def p3_payloads():
    """Valid p=3 payloads of every file kind the CLI reads."""
    phases = {(0, 1): 0.25}
    system = build_system(RootedTree.validate([0, 0, 1], 3), phases)
    rng = np.random.default_rng(3)
    signal = StepFunction(3, -1, 2, rng.normal(size=27) + 1j * rng.normal(size=27))
    pyramid = transform.analyze(transform.project(signal, system, 1), system, 2)
    system_dict = serialize.system_to_dict(system)
    return {
        "tree": serialize.tree_to_dict(system.tree, phases),
        "system": system_dict,
        "signal": serialize.step_to_dict(signal),
        "mask": {"p": 3, "lambda": system_dict["lambda"]},
        "pyramid": serialize.pyramid_to_dict(pyramid),
    }


def write_inputs(directory, payloads):
    """One file per kind: a payload as JSON, or bytes as they are."""
    paths = {}
    for kind, data in payloads.items():
        path = directory / f"{kind}.json"
        if isinstance(data, bytes):
            path.write_bytes(data)
            paths[kind] = str(path)
        else:
            paths[kind] = write_json(path, data)
    return paths


def commands(paths, out):
    """Every subcommand that reads a file, as (file kinds read, argv)."""
    return [
        ({"tree"}, ["tree", "validate", paths["tree"]]),
        ({"tree"}, ["build", paths["tree"], "-o", out]),
        ({"system"}, ["verify", paths["system"]]),
        ({"system", "signal"}, ["transform", "analyze", "--system", paths["system"],
                                "--signal", paths["signal"], "--levels", "2", "-o", out]),
        ({"system", "pyramid"}, ["transform", "synthesize", "--system", paths["system"],
                                 "--pyramid", paths["pyramid"], "-o", out]),
        ({"mask"}, ["mask", "to-tree", paths["mask"], "-o", out]),
        ({"system"}, ["show", "psi", "--system", paths["system"], "--format", "csv"]),
    ]


def run_one_line(argv, capsys):
    """Exit code and the single line a failing command prints, on stdout or stderr."""
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert (out + err).count("\n") == 1, out + err
    return code, out, err


def mutate(payloads, kind, change):
    """Payloads with one kind changed in place, or replaced by the bytes that change returns."""
    bad = copy.deepcopy(payloads)
    replaced = change(bad[kind])
    if isinstance(replaced, bytes):
        bad[kind] = replaced
    return bad


def raw(text):
    return lambda data: text


def set_in(*path_and_value):
    *path, value = path_and_value

    def change(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return change


def drop(*path):
    def change(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return change


def mismatched_detail_levels(pyramid):
    pyramid["details"][0][1]["level"] += 1


def pyramid_grids(pyramid):
    return [pyramid["approx"], *(g for level in pyramid["details"] for g in level)]


def value_pairs(grid):
    """A grid's base64 values column as [re, im] pairs."""
    return serialize._cpx_out(np.frombuffer(base64.b64decode(grid["values"]), dtype="<c16"))


def value_bytes(*path_and_change):
    """Change the bytes of the values column of the grid at path, and encode them again."""
    *path, change = path_and_change

    def edit(pyramid):
        grid = pyramid
        for key in path:
            grid = grid[key]
        grid["values"] = base64.b64encode(change(base64.b64decode(grid["values"]))).decode()
    return edit


def first_value(re, im):
    return lambda raw: struct.pack("<dd", re, im) + raw[16:]


def entries_layout(pyramid):
    """The layout of older pyramid files: one {"shift": digits, "value": [re, im]} per key."""
    for grid in pyramid_grids(pyramid):
        keys, values = run_keys(grid.pop("keys")), value_pairs(grid)
        del grid["values"]
        grid["entries"] = [{"shift": list(transform.shift_key_digits(k, 3)), "value": v}
                           for k, v in zip(keys, values)]


def pairs_layout(pyramid):
    """The columnar layout with its values as [re, im] pairs, not base64."""
    for grid in pyramid_grids(pyramid):
        grid["values"] = value_pairs(grid)


def huge_first_key(pyramid):
    """The file with a run of 5000-digit keys put first: more than json reads as an int."""
    return serialize.dumps(pyramid).replace('"first": [', '"first": [' + "9" * 5000 + ", ", 1).encode()


def key_list_layout(pyramid):
    """The layout of older pyramid files: every shift key its own int, not runs of them."""
    for grid in pyramid_grids(pyramid):
        grid["keys"] = run_keys(grid["keys"])


def every_level_shifted_by_5000(pyramid):
    # consistent levels, but p^(level/2) is no double at p=3
    for grid in pyramid_grids(pyramid):
        grid["level"] += 5000


@pytest.mark.parametrize(
    "kind, change, command, code, stream, message",
    [
        pytest.param("tree", set_in("p", "three"), 0, EXIT_INPUT, "err", "three", id="1-validate"),
        pytest.param("tree", set_in("p", "three"), 1, EXIT_INPUT, "err", "three", id="1-build"),
        pytest.param("tree", set_in("parent", 5), 1, EXIT_INPUT, "err", "not iterable",
                     id="2-parent"),
        pytest.param("pyramid", mismatched_detail_levels, 4, EXIT_INPUT, "err", "different levels",
                     id="6-levels"),
        pytest.param("pyramid", set_in("approx", "level", "x"), 4, EXIT_INPUT, "err", "'x'",
                     id="7-level"),
        # the last value without its imaginary part
        pytest.param("pyramid", value_bytes("approx", lambda raw: raw[:-8]), 4, EXIT_INPUT, "err",
                     "value bytes", id="7-value"),
        pytest.param("pyramid", value_bytes("approx", lambda raw: raw + b"\0"), 4, EXIT_INPUT, "err",
                     "value bytes, not 16 bytes a key", id="7-value-bytes"),
        pytest.param("pyramid", set_in("approx", "values", 1.5), 4, EXIT_INPUT, "err",
                     "base64 string, not float", id="7-values-float"),
        pytest.param("pyramid", set_in("approx", "values", "AAAA#AAA"), 4, EXIT_INPUT, "err",
                     "no base64", id="7-values-base64"),
        pytest.param("pyramid", set_in("approx", "values", "AAAAAAAAAAAAAAAAAAAAAA=é"), 4,
                     EXIT_INPUT, "err", "no base64", id="7-values-ascii"),
        pytest.param("pyramid", pairs_layout, 4, EXIT_INPUT, "err",
                     "base64 string of little-endian complex128", id="7-pairs-layout"),
        pytest.param("pyramid", set_in("details", {"level": 0}), 4, EXIT_INPUT, "err",
                     "missing key 'keys'", id="7-details"),
        # the approximation's keys are one run, 0, 1, 2
        pytest.param("pyramid", set_in("approx", "keys", "first", 0, -1), 4, EXIT_INPUT, "err",
                     "outside", id="7-shift"),
        pytest.param("pyramid", set_in("approx", "keys", "first", 0, 1.5), 4, EXIT_INPUT, "err",
                     "integers", id="7-shift-fraction"),
        pytest.param("pyramid", set_in("approx", "keys", "first", 0, "2"), 4, EXIT_INPUT, "err",
                     "integers", id="7-shift-string"),
        pytest.param("pyramid", set_in("approx", "keys", "first", 0, True), 4, EXIT_INPUT, "err",
                     "integers", id="7-shift-bool"),
        pytest.param("pyramid", set_in("approx", "keys", "count", 0, True), 4, EXIT_INPUT, "err",
                     "integers", id="7-runs-count-bool"),
        pytest.param("pyramid", set_in("approx", "keys", {"first": [0, 0], "count": [1, 2]}), 4,
                     EXIT_INPUT, "err", "share the shift key 0", id="7-shift-repeated"),
        pytest.param("pyramid", set_in("approx", "keys", {"first": [0, 1], "count": [2, 1]}), 4,
                     EXIT_INPUT, "err", "share the shift key 1", id="7-runs-overlap"),
        pytest.param("pyramid", set_in("approx", "keys", {"first": [2, 0], "count": [1, 2]}), 4,
                     EXIT_INPUT, "err", "runs must ascend", id="7-runs-descending"),
        pytest.param("pyramid", set_in("approx", "keys", {"first": [0, 3], "count": [3, 0]}), 4,
                     EXIT_INPUT, "err", "run holds no key", id="7-runs-zero-count"),
        pytest.param("pyramid", set_in("approx", "keys", "count", 0, 4), 4, EXIT_INPUT, "err",
                     "4 shift keys for 48 value bytes", id="7-runs-count"),
        pytest.param("pyramid", set_in("approx", "keys", "count", [3, 1]), 4, EXIT_INPUT, "err",
                     "1 first keys for 2 counts", id="7-runs-lengths"),
        pytest.param("pyramid", key_list_layout, 4, EXIT_INPUT, "err",
                     'runs {"first": [k, ...], "count": [n, ...]}', id="7-key-list-layout"),
        pytest.param("pyramid", value_bytes("approx", lambda raw: raw[:-16]), 4, EXIT_INPUT,
                     "err", "shift keys for", id="7-keys-length"),
        pytest.param("pyramid", entries_layout, 4, EXIT_INPUT, "err", "missing key 'keys'",
                     id="7-entries-layout"),
        pytest.param("pyramid", set_in("p", 1), 4, EXIT_INPUT, "err", "p=1 is no prime",
                     id="7-p"),
        pytest.param("tree", raw(b'{"p": 3, "parent": [0, 0, 1], "x": "\xe9"}'), 0, EXIT_INPUT,
                     "err", "utf-8", id="json-not-utf8"),
        pytest.param("tree", raw(b'{"p": ' + b"9" * 5000 + b', "parent": [0, 0, 1]}'), 0, EXIT_INPUT,
                     "err", "4300 digits", id="json-huge-int"),
        pytest.param("pyramid", huge_first_key, 4, EXIT_INPUT, "err", "4300 digits",
                     id="json-huge-key"),
        pytest.param("tree", raw(b'{"p": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"), 0, EXIT_INPUT,
                     "err", "recursion", id="json-deep"),
        pytest.param("system", set_in("M", 0), 2, EXIT_INPUT, "err", "do not fit", id="system-M"),
        pytest.param("system", drop("lambda"), 2, EXIT_INPUT, "err", "missing key 'lambda'",
                     id="lambda-missing"),
        pytest.param("system", set_in("lambda", [[1.0, 0.0]] * 4), 2, EXIT_INPUT, "err",
                     "lambda table must have length 9", id="lambda-length"),
        pytest.param("tree", set_in("phases_turns", [0.25]), 1, EXIT_INPUT, "err", "items",
                     id="phases-list"),
        pytest.param("tree", set_in("phases_turns", {"0->1": float("nan")}), 1, EXIT_INPUT, "err",
                     "finite", id="phase-nan"),
        pytest.param("tree", set_in("phases_turns", {"0->1": float("inf")}), 1, EXIT_INPUT, "err",
                     "finite", id="phase-inf"),
        pytest.param("pyramid", every_level_shifted_by_5000, 4, EXIT_MATH, "out", "level 5001",
                     id="levels-overflow"),
        pytest.param("signal", set_in("values", 4, [float("nan"), 0.0]), 3, EXIT_INPUT, "err",
                     "signal has a value that is not a finite number", id="signal-nan"),
        pytest.param("signal", set_in("values", 4, [0.0, float("inf")]), 3, EXIT_INPUT, "err",
                     "signal has a value that is not a finite number", id="signal-inf"),
        pytest.param("pyramid", value_bytes("approx", first_value(float("nan"), 0.0)), 4,
                     EXIT_INPUT, "err", "pyramid has a value that is not a finite number",
                     id="pyramid-nan"),
        pytest.param("pyramid", value_bytes("details", 1, 0, first_value(float("-inf"), 0.0)),
                     4, EXIT_INPUT, "err", "pyramid has a value that is not a finite number",
                     id="pyramid-inf"),
    ],
)
def test_malformed_input_exit_codes(p3_payloads, tmp_path, capsys, kind, change, command, code,
                                    stream, message):
    paths = write_inputs(tmp_path, mutate(p3_payloads, kind, change))
    _, argv = commands(paths, str(tmp_path / "out.json"))[command]
    got, out, err = run_one_line(argv, capsys)
    assert got == code
    assert message in {"out": out, "err": err}[stream]


@pytest.mark.parametrize("count", [1, 3])
def test_pyramid_with_other_than_p_minus_1_detail_grids_is_input_error(p3_payloads, tmp_path,
                                                                       capsys, count):
    # grids of 2-digit keys: 1 + 1 or 1 + 3 of them would still reshape into the bank's rows
    grid = transform.CoeffGrid(3, 0, keys=np.arange(9), values=np.ones(9, dtype=complex))
    pyramid = transform.CoeffPyramid(3, grid, ((grid,) * count,))
    paths = write_inputs(tmp_path, {"system": p3_payloads["system"],
                                    "pyramid": serialize.pyramid_to_dict(pyramid)})
    code, _, err = run_one_line(["transform", "synthesize", "--system", paths["system"], "--pyramid",
                                 paths["pyramid"], "-o", str(tmp_path / "out.json")], capsys)
    assert code == EXIT_INPUT and f"{count} detail grids, not p - 1 = 2" in err
    assert not (tmp_path / "out.json").exists()


def test_wide_shift_is_refused_by_the_size_cap(p3_payloads, tmp_path, capsys):
    # each key > 2^63 would wrap in int64 arithmetic; 10^4299 and 4 300 nines have the
    # most digits json reads, and at p=7 the table of 5 089-digit keys has 4 301 digits,
    # more than str() converts
    for p, key in ((3, 3**40), (3, 10**4299), (7, int("9" * 4300))):
        wide = mutate(p3_payloads, "pyramid", set_in("approx", "keys", "first", 0, key))
        wide["pyramid"]["p"] = p
        paths = write_inputs(tmp_path, wide)
        _, argv = commands(paths, str(tmp_path / "out.json"))[4]
        code, out, _ = run_one_line(argv, capsys)
        assert code == EXIT_MATH and "exceeds cap" in out and len(out) < 120, out


def test_negative_wide_shift_gives_one_short_line(p3_payloads, tmp_path, capsys):
    # 4 300 nines is the most digits json reads; the line must not spell them out
    wide = mutate(p3_payloads, "pyramid", set_in("approx", "keys", "first", 0, -int("9" * 4300)))
    paths = write_inputs(tmp_path, wide)
    _, argv = commands(paths, str(tmp_path / "out.json"))[4]
    code, _, err = run_one_line(argv, capsys)
    assert code == EXIT_INPUT and err.startswith("input error:") and len(err) < 120, err


def sparse_signal(seed):
    """The benchmark's signal shape: 25 level-3 basis functions on the p=5 chain, one with
    a top digit.  Returns the system, the input coefficients and the signal."""
    rng = np.random.default_rng(seed)
    tree = RootedTree.validate([0, 0, 1, 2, 3], 5)
    system = build_system(tree, {edge: float(rng.uniform()) for edge in tree.edges()})
    n = 5**4
    keys = {int(rng.integers(n // 5, n))} | {int(k) for k in rng.choice(n, 24, replace=False)}
    coeffs = {k: complex(rng.normal(), rng.normal()) for k in sorted(keys)}
    return system, coeffs, transform.materialize(transform.CoeffGrid(5, 3, coeffs), system)


def sparse_round_trip(tmp_path, seed):
    """sparse_signal through the CLI.  Returns the system, the input coefficients, the
    signal, the reconstructed signal and the grid the synthesis gave."""
    system, coeffs, signal = sparse_signal(seed)
    sys_file = write_json(tmp_path / "system.json", serialize.system_to_dict(system))
    sig_file = write_json(tmp_path / "signal.json", serialize.step_to_dict(signal))
    pyr_file, out_file = str(tmp_path / "pyr.json"), str(tmp_path / "out.json")
    assert main(["transform", "analyze", "--system", sys_file, "--signal", sig_file,
                 "--levels", "3", "--level", "3", "-o", pyr_file]) == EXIT_OK
    assert main(["transform", "synthesize", "--system", sys_file, "--pyramid", pyr_file,
                 "-o", out_file]) == EXIT_OK
    back = serialize.step_from_dict(serialize.load_json(out_file))
    assert (back.support_level, back.resolution_level) == (signal.support_level, signal.resolution_level)
    assert np.abs(back.values - signal.values).max() < 1e-12
    grid = transform.synthesize(serialize.pyramid_from_dict(serialize.load_json(pyr_file)), system)
    return system, coeffs, signal, back, grid


@pytest.mark.parametrize("seed", range(10))
def test_projection_of_a_sparse_signal_gives_exactly_its_keys(seed):
    # without the projection's rounding cut, 75-100 keys of residue below 1.1e-15 joined the 25
    system, coeffs, signal = sparse_signal(seed)
    grid = transform.project(signal, system, 3)
    assert grid.keys.tolist() == sorted(coeffs)
    assert np.abs(grid.values - list(coeffs.values())).max() < 1e-12


def test_synthesize_writes_the_dumps_of_its_signal(tmp_path, capsys):
    sparse_round_trip(tmp_path, 0)
    out = tmp_path / "out.json"
    back = serialize.step_from_dict(serialize.load_json(str(out)))
    assert out.read_text() == serialize.dumps(serialize.step_to_dict(back))
    capsys.readouterr()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_trip_of_a_sparse_signal_writes_exact_zeros(tmp_path, capsys, seed):
    _, coeffs, signal, back, grid = sparse_round_trip(tmp_path, seed)
    assert set(grid.entries) == set(coeffs)
    zero = signal.values == 0
    assert zero.mean() > 0.5
    assert np.array_equal(back.values[zero], np.zeros(zero.sum()))
    capsys.readouterr()


def test_error_carried_across_synthesis_levels_is_not_cut(tmp_path, capsys):
    # Each level cuts only its own rounding, so error that coarser levels leave in a
    # coefficient that should be zero can survive; with this seed some keys near 1e-16 do
    # (7 on x86-64 with OpenBLAS; the count follows the summation order of the bank's
    # products).  The output is still exact zero wherever none of them reaches.
    system, coeffs, signal, back, grid = sparse_round_trip(tmp_path, 8)
    extra = set(grid.entries) - set(coeffs)
    assert all(abs(grid.entries[k]) < 1e-15 for k in extra)
    lo, hi = signal.support_level, signal.resolution_level
    reach = np.zeros(np.size(signal.values), dtype=bool)
    for k in extra:
        f = transform.materialize(transform.CoeffGrid(5, 3, {k: 1.0}), system)
        reach |= embed(f, lo, hi) != 0
    zero = signal.values == 0
    assert np.array_equal(back.values[zero & ~reach], np.zeros((zero & ~reach).sum()))
    assert np.abs(back.values[zero]).max() < 1e-14
    capsys.readouterr()


def sparse_step_text():
    """The step file text of a p=3 signal of 27 cells, all +0 but three."""
    values = np.zeros(27, dtype=complex)
    values[[4, 5, 20]] = [1.5 + 2.5j, -0.25, 3j]
    return serialize.step_dumps(StepFunction(3, -1, 2, values))


# each file the signal reader refuses; a +0 cell is written as the token [0.0, 0.0]
SIGNAL_REFUSALS = {
    "null cell": lambda text: text.replace("[1.5, 2.5]", "null"),
    "token nested in a pair": lambda text: text.replace("[1.5, 2.5]", "[[0.0, 0.0], 2.5]"),
    "token as p": lambda text: text.replace('"p": 3', '"p": [0.0, 0.0]'),
    "token as the values": lambda text: text[:text.index('"values"')] + '"values": [0.0, 0.0]}\n',
    "bare-number cell": lambda text: text.replace("[1.5, 2.5]", "1.5"),
    "bare zero cell": lambda text: text.replace("[1.5, 2.5]", "0"),
    "truncated": lambda text: text[:-20],
    "top level no object": lambda text: json.dumps(json.loads(text)["values"]),
}


@pytest.mark.parametrize("case", sorted(SIGNAL_REFUSALS) + ["utf-16"])
def test_signal_reader_refuses_what_the_plain_reader_refuses(tmp_path, capsys, case):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 0]})
    sig_file = tmp_path / "sig.json"
    if case == "utf-16":
        sig_file.write_bytes(sparse_step_text().encode("utf-16"))
    else:
        sig_file.write_text(SIGNAL_REFUSALS[case](sparse_step_text()))
    capsys.readouterr()
    with pytest.raises(serialize.FormatError) as plain:
        serialize.step_from_dict(serialize.load_json(str(sig_file)))
    argv = ["transform", "analyze", "--system", sys_file, "--signal", str(sig_file), "-o", str(tmp_path / "pyr.json")]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {plain.value}\n"


@pytest.mark.parametrize("spelling", ["compact", "token in an extra key"])
def test_signal_reader_reads_other_spellings_as_the_plain_reader(tmp_path, capsys, spelling):
    sys_file = build_system_file(tmp_path, {"p": 3, "parent": [0, 0, 0]})
    data = json.loads(sparse_step_text())
    if spelling == "compact":  # no token, so the plain path reads it
        text = json.dumps(data, separators=(",", ":"))
        assert "[0.0,0.0]" in text and "[0.0, 0.0]" not in text
    else:
        text = json.dumps({**data, "note": "a +0 cell is [0.0, 0.0]"})
    pyramids = []
    for name, signal_text in (("file", sparse_step_text()), (spelling, text)):
        sig_file = tmp_path / f"{name}.json"
        sig_file.write_text(signal_text)
        want = serialize.step_from_dict(serialize.load_json(str(sig_file)))
        assert serialize.load_step(str(sig_file)).values.tobytes() == want.values.tobytes()
        pyr_file = tmp_path / f"{name}-pyr.json"
        assert main(["transform", "analyze", "--system", sys_file, "--signal", str(sig_file),
                     "-o", str(pyr_file)]) == EXIT_OK
        pyramids.append(pyr_file.read_bytes())
    assert pyramids[0] == pyramids[1]
    capsys.readouterr()


@pytest.mark.parametrize("parent, message", [([0, 0], "length 2"), ([0, 2, 1], "cycle: 1->2->1")])
def test_build_of_invalid_tree_prints_the_validate_line(tmp_path, capsys, parent, message):
    path = write_json(tmp_path / "bad.json", {"p": 3, "parent": parent})
    validate = run_one_line(["tree", "validate", path], capsys)
    build = run_one_line(["build", path, "-o", str(tmp_path / "s.json")], capsys)
    assert build == validate
    assert validate[0] == EXIT_MATH and message in validate[1]


@pytest.mark.parametrize("command", [1, 3, 4, 5])
def test_unwritable_output_is_input_error(p3_payloads, tmp_path, capsys, command):
    paths = write_inputs(tmp_path, p3_payloads)
    _, argv = commands(paths, str(tmp_path / "no_such_dir" / "out.json"))[command]
    code, _, err = run_one_line(argv, capsys)
    assert code == EXIT_INPUT and "cannot write" in err


def test_malformed_size_cap_is_input_error(p3_payloads, tmp_path, capsys, monkeypatch):
    paths = write_inputs(tmp_path, p3_payloads)
    monkeypatch.setenv("VILWAV_SIZE_CAP", "abc")
    code, _, err = run_one_line(["build", paths["tree"], "-o", str(tmp_path / "s.json")], capsys)
    assert code == EXIT_INPUT and "VILWAV_SIZE_CAP" in err


def test_allocation_that_memory_refuses_is_one_failed_line(p3_payloads, tmp_path, capsys, monkeypatch):
    # what numpy raises when a size cap above memory admits a table (`show psi` of the p = 11
    # chain under a cap of 10^30); phi's table is refused here before anything is allocated
    def refuse(spectrum):
        raise MemoryError("Unable to allocate 386. GiB for an array with shape (214358881, 242) "
                          "and data type complex128")

    monkeypatch.setattr(wavelet, "inverse_transform", refuse)
    paths = write_inputs(tmp_path, p3_payloads)
    code, out, err = run_one_line(["show", "phi", "--system", paths["system"]], capsys)
    assert code == EXIT_MATH and out.startswith("failed: out of memory: Unable to allocate 386. GiB") and not err


def test_analyze_zero_levels_is_input_error(p3_payloads, tmp_path, capsys):
    paths = write_inputs(tmp_path, p3_payloads)
    _, argv = commands(paths, str(tmp_path / "pyr.json"))[3]
    argv[argv.index("--levels") + 1] = "0"
    code, _, err = run_one_line(argv, capsys)
    assert code == EXIT_INPUT and "levels must be >= 1" in err


def never(*args, **kwargs):
    raise AssertionError("sweep work started")


@pytest.fixture
def no_sweep(monkeypatch):
    """Fail the test if a tree is decoded."""
    from vilwav import tree as tree_module

    monkeypatch.setattr(tree_module, "prufer_to_parent", never)


def test_cli_import_leaves_multiprocessing_out():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(vilwav.__file__)), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "import sys, vilwav.cli; print(sorted(m for m in sys.modules "
                           "if m.startswith(('multiprocessing', 'concurrent'))))"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_oversized_sweep_is_refused_up_front(no_sweep, capsys):
    # 11^9 trees exceed the default size cap, with or without phase draws
    for draws in ([], ["--draws", "1"]):
        code, out, _ = run_one_line(["verify", "--all-trees", "11", *draws], capsys)
        assert code == EXIT_MATH and "exceeds cap" in out
        assert " systems exceeds" in out and "entries" not in out


def test_sweep_counts_every_draw_against_the_cap(monkeypatch, capsys):
    # 125 trees x 5 systems; a full verify at p=5 counts at most 125 entries against the cap
    # (the family's spectra), so the sweep's own count is what meets it
    monkeypatch.setenv("VILWAV_SIZE_CAP", "625")
    assert main(["verify", "--all-trees", "5", "--draws", "4"]) == EXIT_OK
    from vilwav import tree as tree_module

    monkeypatch.setattr(tree_module, "prufer_to_parent", never)
    code, out, _ = run_one_line(["verify", "--all-trees", "5", "--draws", "5"], capsys)
    assert code == EXIT_MATH and out == "failed: tree × draw sweep of 750 systems exceeds cap 625\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "system.py", "--all-trees", "3"], "--all-trees verifies no system file"),
    (["verify", "system.json", "--draws", "1"], "--draws needs --all-trees P"),
    (["verify", "--all-trees", "3", "--draws", "-1"], "--draws -1"),
])
def test_sweep_flags_out_of_place_are_input_errors(no_sweep, capsys, argv, message):
    code, _, err = run_one_line(argv, capsys)
    assert code == EXIT_INPUT and message in err


def test_all_trees_fail_lines_name_the_failing_check(monkeypatch, capsys):
    def one_check_fails(system, tol=None):
        return [CheckResult("mask-row-sums", 0.0, True),
                CheckResult("gram-orthonormal-family", 0.5, False)]

    monkeypatch.setattr(cli, "verify_wavelet_system", one_check_fails)
    assert main(["verify", "--all-trees", "3"]) == EXIT_MATH
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert len(fails) == 3
    assert all(line.endswith("dev=5.000e-01 checks=gram-orthonormal-family") for line in fails)


# -- fuzzing: one mutated leaf or key of one valid file, every subcommand --

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
# what may replace a pyramid's shift key besides: ints past int64 (up to the most
# digits json reads), floats and bools
KEY_VALUES = st.one_of(JSON_VALUES, st.integers(2**63, 10**4299), st.floats(), st.booleans())


def json_paths(obj, path=()):
    """Paths to every scalar leaf and every dict key of a JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield ("key", path + (key,))
            yield from json_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from json_paths(value, path + (i,))
    else:
        yield ("leaf", path)


@settings(max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_mutated_inputs_exit_cleanly(p3_payloads, tmp_path, capsys, monkeypatch, data):
    monkeypatch.setenv("VILWAV_SIZE_CAP", "100000")
    kind = data.draw(st.sampled_from(sorted(p3_payloads)))
    what, path = data.draw(st.sampled_from(list(json_paths(p3_payloads[kind]))))
    *where, last = path
    if what == "key":
        op = data.draw(st.sampled_from(["delete", "rename"]))
        new_key = data.draw(st.text(max_size=3)) if op == "rename" else None
    else:
        op = data.draw(st.sampled_from(["replace", "delete"]))
        is_key = kind == "pyramid" and where[-1:] == ["keys"]
        new_value = data.draw(KEY_VALUES if is_key else JSON_VALUES) if op == "replace" else None

    def change(payload):
        for key in where:
            payload = payload[key]
        value = payload.pop(last) if op in ("delete", "rename") else None
        if op == "rename":
            payload[new_key] = value
        elif op == "replace":
            payload[last] = new_value

    paths = write_inputs(tmp_path, mutate(p3_payloads, kind, change))
    for reads, argv in commands(paths, str(tmp_path / "out.json")):
        if kind in reads:
            capsys.readouterr()
            assert main(argv) in (EXIT_OK, EXIT_MATH, EXIT_INPUT), argv
            assert "Traceback" not in capsys.readouterr().err


def test_zero_phase_build_analyzes_twenty_levels_under_a_small_cap(tmp_path, capsys, monkeypatch):
    # zero phases cancel exactly, and analysis cuts the rounding dust they leave;
    # otherwise it gains a digit per level and 20 levels pass this cap
    monkeypatch.setenv("VILWAV_SIZE_CAP", "100000")
    tree = {"p": 3, "parent": [0, 0, 1], "phases_turns": {"0->1": 0.25, "1->2": 0.6}}
    tree_path = write_json(tmp_path / "tree.json", tree)
    sys_file = str(tmp_path / "system.json")
    assert main(["build", tree_path, "-o", sys_file, "--phases", "zero"]) == EXIT_OK
    zero = serialize.system_to_dict(build_system(RootedTree.validate([0, 0, 1], 3)))
    assert serialize.load_json(sys_file) == zero
    signal = StepFunction(3, -1, 2, np.random.default_rng(5).normal(size=27))
    sig_file = write_json(tmp_path / "sig.json", serialize.step_to_dict(signal))
    assert main(["transform", "analyze", "--system", sys_file, "--signal", sig_file,
                 "--levels", "20", "-o", str(tmp_path / "pyr.json")]) == EXIT_OK
    capsys.readouterr()
