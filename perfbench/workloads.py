"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every workload is a closed loop: one caller in one process.  A pass is a
list of operations; each is timed around the library calls only, and its
outputs are checked after the clock stops.  A failed check or any
exception marks the operation failed; it is never timed as a success and
never stops the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from layers import MODULES

TREE7_A = (0, 3, 3, 0, 5, 0, 4)
TREE7_B = (0, 3, 3, 0, 5, 0, 2)
CHAIN5 = (0, 0, 1, 2, 3)  # p=5, height 5, M=3
RT_TOL = 1e-10  # filter-bank round-trip bound
PHASE_TOL = 1e-9  # mask_to_tree phase recovery, in turns


def load_vilwav(src: Path) -> SimpleNamespace:
    """Import vilwav afresh from `src` and return its modules by short name.

    Refuses a vilwav that resolves anywhere else, so a checkout without the
    sources fails instead of measuring some installed copy.
    """
    src = Path(src).resolve()
    for name in [n for n in sys.modules if n == "vilwav" or n.startswith("vilwav.")]:
        del sys.modules[name]
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("vilwav")
    if Path(pkg.__file__).resolve().parent.parent != src:
        raise ImportError(f"vilwav resolved to {pkg.__file__}, outside {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"vilwav.{m}") for m in MODULES})


@dataclass
class Op:
    phase: str  # "system", or the filter-bank phase
    seconds: float
    ok: bool
    error: str = ""
    work: int = 0  # systems, coefficients, cells or bytes done, if ok


@dataclass
class Pass:
    ops: list = field(default_factory=list)
    digest: str = ""
    build_s: float = 0.0
    verify_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.ops)


def run_op(phase: str, call, check, work: int) -> tuple[Op, object]:
    """Time `call()`, then `check(out)` -> error text or None, untimed."""
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # any program failure counts against fail_share
        return Op(phase, time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}"), None
    seconds = time.perf_counter() - t0
    try:
        problem = check(out)
    except Exception as exc:  # a malformed result is a failed check
        problem = f"check raised {type(exc).__name__}: {exc}"
    ok = problem is None
    return Op(phase, seconds, ok, problem or "", work if ok else 0), out


def _record(h, op: Op, *arrays) -> None:
    """Fold an op's outputs (or its error) into the pass digest."""
    if not op.ok:
        h.update(op.error.encode())
    for a in arrays if op.ok else ():
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())


def _seeded_phases(tree, rng) -> dict:
    return {edge: float(rng.uniform(0.0, 1.0)) for edge in tree.edges()}


def _tree_info(tree) -> dict:
    return {"p": tree.p, "parent": list(tree.parent), "height": tree.height()}


# -- systems: build, verify, mask round trip --


class SystemSweep:
    """Build, verify and invert the mask of each tree, one op per system."""

    def __init__(self, primes=(), parents=(), full_max_height=None):
        self.primes = tuple(primes)
        self.parents = tuple(parents)
        self.full_max_height = full_max_height  # taller trees verify at spectral level

    def prepare(self, m, seed: int, workdir: Path) -> SimpleNamespace:
        trees = [t for p in self.primes for t in m.tree.enumerate_trees(p)]
        trees += [m.tree.RootedTree.validate(par, len(par)) for par in self.parents]
        rng = np.random.default_rng(seed)
        items = [(t, _seeded_phases(t, rng)) for t in trees]
        return SimpleNamespace(items=items)

    def describe(self, state) -> dict:
        heights = Counter(f"p{t.p}_h{t.height()}" for t, _ in state.items)
        info = {"systems": len(state.items), "trees_by_p_height": dict(heights)}
        if self.parents:
            info["trees"] = [
                dict(_tree_info(t), level=self._level(t)) for t, _ in state.items
            ]
        return info

    def _level(self, tree) -> str:
        if self.full_max_height is not None and tree.height() > self.full_max_height:
            return "spectral"
        return "full"

    def run(self, m, state) -> Pass:
        out = Pass()
        h = hashlib.sha256()
        for tree, phases in state.items:
            spectral_only = self._level(tree) == "spectral"
            split = {}

            def call(tree=tree, phases=phases, spectral_only=spectral_only, split=split):
                t0 = time.perf_counter()
                system = m.wavelet.build_system(tree, phases)
                t1 = time.perf_counter()
                checks = m.wavelet.verify_wavelet_system(system, spectral_only=spectral_only)
                t2 = time.perf_counter()
                back = m.mask.mask_to_tree(system.mask)
                split.update(build=t1 - t0, verify=t2 - t1)
                return system, checks, back

            def check(res, tree=tree, phases=phases):
                system, checks, (back_tree, back_phases) = res
                bad = [c.name for c in checks if not c.passed]
                if bad:
                    return f"tree {list(tree.parent)}: checks failed {bad}"
                if back_tree.parent != tree.parent:
                    return f"tree {list(tree.parent)}: mask_to_tree gave {list(back_tree.parent)}"
                for edge, turn in phases.items():
                    d = abs(back_phases.get(edge, 0.0) - turn) % 1.0
                    if min(d, 1.0 - d) > PHASE_TOL:
                        return f"tree {list(tree.parent)}: phase of edge {edge} not recovered"
                return None

            op, res = run_op("system", call, check, work=1)
            out.ops.append(op)
            if op.ok:
                system, checks, (_, back_phases) = res
                out.build_s += split["build"]
                out.verify_s += split["verify"]
                _record(h, op, system.beta, system.phi.values, *(f.values for f in system.psi),
                        np.array([c.max_deviation for c in checks]),
                        repr(sorted(back_phases.items())).encode())
            else:
                _record(h, op)
        out.digest = h.hexdigest()
        return out


# -- filter bank --


def _grid_error(a, b) -> float:
    keys = set(a.entries) | set(b.entries)
    return max(
        (float(np.max(np.abs(a.entries.get(k, 0.0) - b.entries.get(k, 0.0)))) for k in keys),
        default=0.0,
    )


def _grid_bytes(grid) -> bytes:
    return b"".join(
        str(k).encode() + np.asarray(grid.entries[k], dtype=complex).tobytes() for k in sorted(grid.entries)
    )


def _random_grid(m, p, level, n, rng, vector=None):
    shape = (n,) if vector is None else (n, vector)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    entries = dict(enumerate(values.tolist() if vector is None else values))
    return m.transform.CoeffGrid(p, level, entries)


def _on_window(p, support, resolution, values, lo: int, hi: int) -> np.ndarray:
    """Cell values of a step function on the enclosing window [lo, hi)."""
    k = np.arange(p ** (hi - lo))
    low = support - lo
    out = np.asarray(values)[(k // p**low) % p ** (resolution - support)]
    if low:
        out[k % p**low != 0] = 0.0
    return out


def _same_step(a, b) -> bool:
    return (a.p, a.support_level, a.resolution_level) == (b.p, b.support_level, b.resolution_level) and (
        np.array_equal(a.values, b.values)
    )


def _system_mismatch(a, b) -> str | None:
    if (a.p, a.M, a.tree.parent) != (b.p, b.M, b.tree.parent):
        return "p, M or parent differ"
    arrays = [(a.mask.lam, b.mask.lam), (a.beta, b.beta), (a.phi_hat.values, b.phi_hat.values)]
    arrays += list(zip(a.beta_l, b.beta_l))
    if len(a.beta_l) != len(b.beta_l) or not all(np.array_equal(x, y) for x, y in arrays):
        return "mask, beta or phi_hat tables differ"
    if a.phi_hat.band != b.phi_hat.band or not _same_step(a.phi, b.phi):
        return "phi differs"
    if len(a.psi) != len(b.psi) or not all(_same_step(x, y) for x, y in zip(a.psi, b.psi)):
        return "psi differs"
    return None


def _pyramid_mismatch(a, b) -> str | None:
    grids_a = [a.approx] + [g for level in a.details for g in level]
    grids_b = [b.approx] + [g for level in b.details for g in level]
    if a.p != b.p or [len(lv) for lv in a.details] != [len(lv) for lv in b.details]:
        return "pyramid shape differs"
    for ga, gb in zip(grids_a, grids_b):
        if ga.level != gb.level or ga.entries != gb.entries:
            return f"grid at level {ga.level} differs"
    return None


class FilterBank:
    """Four uses of the filter bank, each its own op and metric.

    - cascade: a dense grid of p^width shifts on the `scalar` tree, analysed
      over `levels` levels and synthesised back;
    - batch: p^batch_width shifts x `signals` vector values on the `vector`
      tree, same levels;
    - signal: `vilwav transform analyze` then `synthesize` in process, on
      temp files, for a signal in the level-`level` space (a seeded
      combination of `terms` basis functions whose window is the full
      1 + level digits), so the reconstruction must give it back;
    - io: JSON dump and load, through a file, of the scalar system and of
      the pyramid the cascade op just made.

    The two systems are built once, in set-up.
    """

    def __init__(self, scalar=CHAIN5, vector=TREE7_A, width=7, batch_width=2, signals=1024,
                 levels=3, level=3, terms=25):
        self.scalar, self.vector = scalar, vector
        self.width, self.batch_width, self.signals = width, batch_width, signals
        self.levels, self.level, self.terms = levels, level, terms

    def prepare(self, m, seed: int, workdir: Path) -> SimpleNamespace:
        rng = np.random.default_rng(seed)
        trees = [m.tree.RootedTree.validate(par, len(par)) for par in (self.scalar, self.vector)]
        phases = [_seeded_phases(t, rng) for t in trees]
        t0 = time.perf_counter()
        system, vsystem = (m.wavelet.build_system(t, ph) for t, ph in zip(trees, phases))
        build_s = time.perf_counter() - t0
        p, q = system.p, vsystem.p
        grid = _random_grid(m, p, self.levels, p**self.width, rng)
        batch = _random_grid(m, q, self.levels, q**self.batch_width, rng, vector=self.signals)
        # one key with a top digit forces the signal window down to support level -1
        n = p ** (self.level + 1)
        keys = {int(rng.integers(n // p, n))} | {int(k) for k in rng.choice(n, self.terms - 1, replace=False)}
        coeffs = {k: complex(rng.normal(), rng.normal()) for k in sorted(keys)}
        signal = m.transform.materialize(m.transform.CoeffGrid(p, self.level, coeffs), system)
        paths = {name: str(workdir / f"{name}.json") for name in ("system", "signal", "pyramid", "out", "io")}
        # Input files are written compactly by the standard library: set-up
        # makes inputs, while the io op and the CLI measure vilwav's writer.
        for name, payload in (("system", m.serialize.system_to_dict(system)),
                              ("signal", m.serialize.step_to_dict(signal))):
            with open(paths[name], "w") as fh:
                fh.write(json.dumps(payload))
        return SimpleNamespace(system=system, vsystem=vsystem, grid=grid, batch=batch, signal=signal,
                               paths=paths, build_s=build_s, json_bytes={})

    def describe(self, state) -> dict:
        s = state.signal
        return {
            "trees": [_tree_info(state.system.tree), _tree_info(state.vsystem.tree)],
            "levels": self.levels,
            "cascade_shifts": len(state.grid.entries),
            "batch_shifts": len(state.batch.entries),
            "batch_signals": self.signals,
            "signal_cells": int(np.size(s.values)),
            "signal_window": [s.support_level, s.resolution_level],
            "signal_level": self.level,
            "signal_terms": self.terms,
            "json_bytes": state.json_bytes,
        }

    def run(self, m, state) -> Pass:
        out, h, pyramids = Pass(), hashlib.sha256(), []
        for phase, grid, system in (("cascade", state.grid, state.system),
                                    ("batch", state.batch, state.vsystem)):
            op, res = run_op(phase, lambda g=grid, s=system: self._cascade(m, g, s),
                             lambda res, g=grid: self._round_trip(g, res[1]),
                             work=sum(int(np.size(v)) for v in grid.entries.values()))
            out.ops.append(op)
            _record(h, op, *((_grid_bytes(res[0].approx), _grid_bytes(res[1])) if op.ok else ()))
            pyramids.append(res[0] if op.ok else None)
        out.ops.append(self._signal(m, state, h))
        out.ops.extend(self._io(m, state, pyramids[0], h))
        out.digest = h.hexdigest()
        return out

    def _cascade(self, m, grid, system):
        pyramid = m.transform.analyze(grid, system, self.levels)
        return pyramid, m.transform.synthesize(pyramid, system)

    @staticmethod
    def _round_trip(grid, back) -> str | None:
        err = _grid_error(grid, back)
        return None if err < RT_TOL else f"round-trip error {err:.3e}"

    def _signal(self, m, state, h) -> Op:
        paths, signal = state.paths, state.signal
        analyze = ["transform", "analyze", "--system", paths["system"], "--signal", paths["signal"],
                   "--levels", str(self.levels), "--level", str(self.level), "-o", paths["pyramid"]]
        synth = ["transform", "synthesize", "--system", paths["system"],
                 "--pyramid", paths["pyramid"], "-o", paths["out"]]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return m.cli.main(analyze), m.cli.main(synth)

        def check(codes):
            if codes != (0, 0):
                return f"cli exit codes {codes}"
            with open(paths["out"]) as fh:
                back = json.load(fh)
            pairs = np.asarray(back["values"], dtype=float)
            lo = min(back["support_level"], signal.support_level)
            hi = max(back["resolution_level"], signal.resolution_level)
            got = _on_window(back["p"], back["support_level"], back["resolution_level"],
                             pairs[:, 0] + 1j * pairs[:, 1], lo, hi)
            want = _on_window(signal.p, signal.support_level, signal.resolution_level,
                              signal.values, lo, hi)
            err = float(np.abs(got - want).max())
            return None if err < RT_TOL else f"signal round-trip error {err:.3e}"

        op, _ = run_op("signal", call, check, work=int(np.size(signal.values)))
        files = []
        if op.ok:
            for name in ("pyramid", "out"):
                with open(paths[name], "rb") as fh:
                    files.append(fh.read())
        _record(h, op, *files)
        return op

    def _io(self, m, state, pyramid, h) -> list:
        s, path, ops = m.serialize, state.paths["io"], []
        cases = (
            ("system", state.system, s.system_to_dict, s.system_from_dict, _system_mismatch),
            ("pyramid", pyramid, s.pyramid_to_dict, s.pyramid_from_dict, _pyramid_mismatch),
        )
        for name, obj, to_dict, from_dict, mismatch in cases:
            written = []

            def call(obj=obj, to_dict=to_dict, from_dict=from_dict, written=written):
                if obj is None:
                    raise RuntimeError("the cascade op made no pyramid to write")
                text = s.dumps(to_dict(obj)).encode()
                with open(path, "wb") as fh:
                    fh.write(text)
                written.append(text)
                return from_dict(s.load_json(path))

            op, _ = run_op("io", call, lambda back, obj=obj, mismatch=mismatch: mismatch(obj, back), work=0)
            if op.ok:
                op.work = state.json_bytes[name] = len(written[0])
            _record(h, op, *written)
            ops.append(op)
        return ops


# Why each workload is here: see perfbench/README.md.
WORKLOADS = {
    "sweep5": SystemSweep(primes=(3, 5)),
    "deep7": SystemSweep(
        parents=((0,) * 7, TREE7_A, TREE7_B, (0, 0, 1, 2, 3, 0, 0), (0, 0, 1, 2, 3, 4, 0)),
        full_max_height=5,
    ),
    "filterbank": FilterBank(),
}
