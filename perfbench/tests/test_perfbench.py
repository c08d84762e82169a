"""Self-tests of the benchmark at tiny sizes.

Run with:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CHAIN5, FilterBank, SystemSweep, load_vilwav  # noqa: E402

TINY = {
    "sweep": SystemSweep(primes=(3,)),
    "deep": SystemSweep(parents=((0, 0, 0), CHAIN5), full_max_height=4),
    "filterbank": FilterBank(scalar=(0, 0, 1), vector=(0, 0, 0), width=3, batch_width=2, signals=4,
                             levels=2, level=1, terms=3),
}

# metrics each tiny workload must exercise (nonzero in its traced run)
EXERCISED = {
    "sweep": [
        "tree.enumerate_trees.self_s", "mask.mask_from_tree.self_s", "mask.mask_to_tree.self_s",
        "mask.check_row_condition.self_s", "mask.check_vanishing.self_s",
        "group.char_kernel_apply.calls", "group.char_kernel_apply.cells",
        "refinable.phi_hat_from_tree.self_s", "refinable.inverse_transform.self_s",
        "refinable.check_elementary.self_s", "refinable.check_orthonormality_spectral.self_s",
        "refinable.translate_dilate.calls", "refinable.translate_dilate.cells", "refinable.embed.calls",
        "refinable.translated_cell_matrix.calls", "refinable.translated_cell_matrix.bytes",
        "wavelet.build_system.self_s", "wavelet.solve_beta.self_s", "wavelet.psi_time.calls",
        "wavelet.psi_time.self_s", "wavelet.psi_freq.calls", "wavelet.verify_wavelet_system.self_s",
        "verify.refinement-identity.s", "verify.psi-two-route.s",
        "verify.gram-orthonormal-family.s", "verify.spectral.s",
    ],
    "filterbank": [
        "transform.analyze_level.calls", "transform.analyze_level.coeffs",
        "transform.synthesize_level.calls", "transform.synthesize_level.coeffs",
        "wavelet.psi_time.calls", "cli.main.self_s", "transform.project.self_s",
        "transform.materialize.self_s", "refinable.inner_product.calls",
        "serialize.dumps.self_s", "serialize.dumps.bytes", "serialize.load_json.self_s",
        "serialize.system_to_dict.self_s", "serialize.system_from_dict.self_s",
        "serialize.pyramid_to_dict.self_s", "serialize.pyramid_from_dict.self_s",
    ],
}


@pytest.fixture
def m():
    return load_vilwav(ROOT / "src")


def _traced(m, wl, seed, workdir):
    with Tracer(layers.TARGETS) as tracer:
        result = wl.run(m, wl.prepare(m, seed, workdir))
    return tracer, result


@pytest.mark.parametrize("name", TINY)
def test_traced_and_untraced_outputs_identical(m, name, tmp_path):
    wl = TINY[name]
    plain = wl.run(m, wl.prepare(m, 7, tmp_path))
    _, traced = _traced(m, wl, 7, tmp_path)
    assert all(op.ok for op in plain.ops + traced.ops), [op.error for op in plain.ops + traced.ops]
    assert plain.digest == traced.digest


@pytest.mark.parametrize("name", ["sweep", "filterbank"])
def test_seed_decides_inputs(m, name, tmp_path):
    wl = TINY[name]
    a, b, c = (wl.run(m, wl.prepare(m, s, tmp_path)).digest for s in (3, 3, 4))
    assert a == b != c


def test_wrappers_cover_every_binding_and_are_restored(m, tmp_path):
    namespaces = [m.wavelet, m.transform, m.refinable, m.cli]
    before = [dict(vars(ns)) for ns in namespaces]
    original = m.refinable.translate_dilate
    with Tracer(layers.TARGETS):
        # translate_dilate is bound in refinable, wavelet and transform
        assert m.refinable.translate_dilate is not original
        assert m.wavelet.translate_dilate is m.refinable.translate_dilate
        assert m.transform.translate_dilate is m.refinable.translate_dilate
        assert m.cli.build_system is m.wavelet.build_system is not None
    for ns, snapshot in zip(namespaces, before):
        assert all(vars(ns)[k] is v for k, v in snapshot.items())


def test_spans_nest_and_self_times_nonnegative(m, tmp_path):
    tracer, _ = _traced(m, TINY["sweep"], 1, tmp_path)
    assert tracer.spans
    for s in tracer.spans:
        assert s.end >= s.start
        assert s.self_s >= -1e-12
        if s.parent is not None:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end


@pytest.mark.parametrize("name", EXERCISED)
def test_every_exercised_layer_metric_is_emitted(m, name, tmp_path):
    tracer, _ = _traced(m, TINY[name], 1, tmp_path)
    metrics = layers.summarize([tracer], overhead_s=0.0)
    assert list(metrics) == list(layers.metric_units())
    for metric in EXERCISED[name]:
        assert metrics[metric]["value"] > 0, metric
    assert all(metrics[f"{mod}.errors"]["value"] == 0 for mod in layers.MODULES)


def test_exception_is_counted_not_raised(m, tmp_path, monkeypatch):
    wl = TINY["sweep"]
    state = wl.prepare(m, 1, tmp_path)
    real = m.wavelet.build_system
    boom_parent = state.items[1][0].parent

    def flaky(tree, phases=None):
        if tree.parent == boom_parent:
            raise sys.modules["vilwav.config"].SizeCapError("table too large")
        return real(tree, phases)

    monkeypatch.setattr(m.wavelet, "build_system", flaky)
    result = wl.run(m, state)
    assert [op.ok for op in result.ops] == [True, False, True]
    assert [op.work for op in result.ops] == [1, 0, 1]
    assert "SizeCapError" in result.ops[1].error


def test_wrong_output_is_a_failed_check(m, tmp_path, monkeypatch):
    wl = TINY["filterbank"]
    state = wl.prepare(m, 1, tmp_path)
    real = m.transform.synthesize

    def off_by_a_little(pyramid, system):
        grid = real(pyramid, system)
        key = next(iter(grid.entries))
        grid.entries[key] += 1e-6
        return grid

    monkeypatch.setattr(m.transform, "synthesize", off_by_a_little)
    ops = wl.run(m, state).ops
    cascade, batch, signal, io_system, io_pyramid = ops
    assert not cascade.ok and "round-trip error" in cascade.error
    assert io_system.ok and not io_pyramid.ok and "no pyramid" in io_pyramid.error


@pytest.mark.parametrize("name", TINY)
def test_result_lines_follow_benchmark_json(name, monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        assert run.run_one(name, 1, 0.0, trace) == 0
        *_, record, result = capsys.readouterr().out.strip().splitlines()
        record, result = json.loads(record)["record"], json.loads(result)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(v["value"] > 0 for v in result["metrics"].values()) or trace
        assert record["seed"] == 1 and record["environment"]["blas_threads"] >= 1
        if not trace:  # a set-up before every pass
            assert record["setups"] >= record["passes"] >= 1
    assert "trace.overhead_s" in result["metrics"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep5", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
