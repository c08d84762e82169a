"""Command-line front end.

Exit codes are a stable contract: 0 success, 1 mathematical validation
failure (a MathError, or a table that memory cannot hold), 2 input/format
failure (an InputError); main maps them once.  All output files are
deterministic given the inputs and --seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

from . import serialize, transform, wavelet
from .config import DEFAULT_TOL, InputError, MathError, size_cap
from .group import check_table_size, is_prime
from .mask import mask_to_tree
from .refinable import StepFunction
from .tree import RootedTree, enumerate_trees
from .wavelet import build_system, verify_wavelet_system

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _random_phases(tree: RootedTree, seed) -> dict:
    rng = np.random.default_rng(seed)
    return {edge: float(rng.uniform(0.0, 1.0)) for edge in tree.edges()}


def cmd_tree_validate(args) -> int:
    tree, _ = serialize.tree_from_dict(serialize.load_json(args.path))
    print(
        f"valid, height={tree.height()}, M={tree.support_exponent}, "
        f"first_level={list(tree.first_level())}"
    )
    return EXIT_OK


def cmd_build(args) -> int:
    tree, file_phases = serialize.tree_from_dict(serialize.load_json(args.tree))
    if args.phases == "zero":
        phases = {}
    elif args.phases == "random":
        phases = _random_phases(tree, args.seed)
    else:
        phases = file_phases
    system = build_system(tree, phases)
    _write(args.out, serialize.dumps(serialize.system_to_dict(system)))
    print(f"wrote system p={system.p} M={system.M} to {args.out}")
    return EXIT_OK


def _print_report(checks) -> bool:
    ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        where = f" at {c.where}" if c.where else ""
        print(f"{status}  {c.name:28s} max_dev={c.max_deviation:.3e}{where}")
        ok = ok and c.passed
    print("overall:", "PASS" if ok else "FAIL")
    return ok


def _verify_one_tree(payload) -> tuple[float, list[str]]:
    """(worst deviation, one FAIL line per failing draw) of tree number i in Prufer order: draw 0
    has zero phases, draw k those of _random_phases(tree, (p, i, k)), the same on every worker."""
    i, tree, spectral_only, tol, draws = payload
    devs, fails = [], []
    for k in range(draws + 1):
        system = build_system(tree, _random_phases(tree, (tree.p, i, k)) if k else {})
        checks = verify_wavelet_system(system, spectral_only=spectral_only, tol=tol)
        try:
            round_trip = mask_to_tree(system.mask, tol=tol)[0] == tree
        except MathError:
            round_trip = False
        failed = [c.name for c in checks if not c.passed] + ([] if round_trip else ["mask-to-tree"])
        devs.append(max(c.max_deviation for c in checks))
        if failed:
            where = f"parent={list(tree.parent)}" + (f" draw={k}" if k else "")
            fails.append(f"FAIL {where} dev={devs[-1]:.3e} checks={','.join(failed)}")
    return max(devs), fails


# --all-trees hands trees to the workers in chunks and reports progress at most this often
SWEEP_CHUNK = 8
PROGRESS_EVERY_S = 5.0


def _sweep(jobs: list, workers: int):
    """The results of _verify_one_tree over jobs, lazily and in order."""
    if workers == 1:
        yield from map(_verify_one_tree, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing: not on every start

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_verify_one_tree, jobs, chunksize=SWEEP_CHUNK)


def cmd_verify(args) -> int:
    spectral_only = args.level == "spectral"
    if args.all_trees is None:
        if args.jobs is not None or args.draws is not None:
            raise InputError("--jobs and --draws need --all-trees P")
        system = serialize.system_from_dict(serialize.load_json(args.system))
        checks = verify_wavelet_system(system, spectral_only=spectral_only, tol=args.tol)
        return EXIT_OK if _print_report(checks) else EXIT_MATH
    if args.system is not None:
        raise InputError(f"{args.system}: --all-trees verifies no system file")
    p, draws = args.all_trees, args.draws or 0
    if not is_prime(p):
        raise InputError(f"--all-trees {p}: p must be prime")
    cores = os.cpu_count() or 1
    if args.jobs is not None and not 1 <= args.jobs <= cores:
        raise InputError(f"--jobs {args.jobs}: expected 1 to {cores} workers")
    if draws < 0:
        raise InputError(f"--draws {draws}: expected 0 or more")
    # p^(p-2) trees, clipped as enumerate_trees clips them, of draws + 1 systems each
    check_table_size(p ** min(p - 2, 64) * (draws + 1), "tree × draw sweep", "systems")
    jobs = [(i, t, spectral_only, args.tol, draws) for i, t in enumerate(enumerate_trees(p))]
    t0 = last = time.time()
    results = []
    for result in _sweep(jobs, args.jobs or 1):
        results.append(result)
        if time.time() - last >= PROGRESS_EVERY_S:
            last = time.time()
            fails = sum(1 for r in results if r[1])
            print(f"{len(results)}/{len(jobs)} trees, {fails} FAIL, {last - t0:.0f}s",
                  file=sys.stderr, flush=True)
    bad = [r for r in results if r[1]]
    worst = max(r[0] for r in results)
    print(
        f"{len(results)} trees at p={p}: {len(results) - len(bad)} PASS, "
        f"{len(bad)} FAIL, worst deviation {worst:.3e}, {time.time() - t0:.1f}s"
    )
    for _, lines in bad:
        print("\n".join(lines))
    return EXIT_OK if not bad else EXIT_MATH


def _require_finite(what: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise serialize.FormatError(f"{what} has a value that is not a finite number")


def cmd_transform(args) -> int:
    system = serialize.system_from_dict(serialize.load_json(args.system))
    if args.action == "analyze":
        signal = serialize.load_step(args.signal)
        if signal.p != system.p:
            raise serialize.FormatError(f"signal p={signal.p} incompatible with system p={system.p}")
        _require_finite("signal", signal.values)
        level = args.level if args.level is not None else signal.resolution_level - system.M
        grid = transform.project(signal, system, level)
        pyramid = transform.analyze(grid, system, args.levels)
        back = transform.synthesize(pyramid, system)
        err = transform.grid_error(grid, back)
        # rounding grows with the coefficients, so the bound is relative to the largest one
        bound = args.tol * max(1.0, float(np.max(np.abs(grid.values), initial=0.0)))
        _write(args.out, serialize.dumps(serialize.pyramid_to_dict(pyramid)))
        print(f"wrote pyramid ({args.levels} levels) to {args.out}; round-trip error {err:.3e}")
        return EXIT_OK if err < bound else EXIT_MATH
    pyramid = serialize.pyramid_from_dict(serialize.load_json(args.pyramid))
    if pyramid.p != system.p:
        raise serialize.FormatError(f"pyramid p={pyramid.p} incompatible with system p={system.p}")
    grids = [pyramid.approx, *(g for level in pyramid.details for g in level)]
    _require_finite("pyramid", *(g.values for g in grids))
    grid = transform.synthesize(pyramid, system)
    signal = transform.materialize(grid, system)
    _write(args.out, serialize.step_dumps(signal))
    print(f"wrote reconstructed signal to {args.out}")
    return EXIT_OK


def cmd_mask_to_tree(args) -> int:
    mask = serialize.mask_from_dict(serialize.load_json(args.path))
    tree, phases = mask_to_tree(mask, tol=args.tol)
    _write(args.out, serialize.dumps(serialize.tree_to_dict(tree, phases)))
    print(f"wrote tree parent={list(tree.parent)} to {args.out}")
    return EXIT_OK


def _table_rows(name: str, system) -> list[tuple[str, StepFunction | np.ndarray]]:
    if name == "phi":
        return [("phi", system.phi)]
    if name == "psi":
        return [(f"psi_{l}", f) for l, f in enumerate(system.psi, start=1)]
    return [("beta", system.beta)] + [
        (f"beta_{l}", bl) for l, bl in enumerate(system.beta_l, start=1)
    ]


def cmd_show(args) -> int:
    system = serialize.system_from_dict(serialize.load_json(args.system))
    rows = _table_rows(args.table, system)
    if args.format == "json":
        payload = {}
        for name, obj in rows:
            if isinstance(obj, StepFunction):
                payload[name] = serialize.step_to_dict(obj)
            else:
                payload[name] = serialize._cpx_out(obj)
        sys.stdout.write(serialize.dumps(payload))
    else:
        print("name,index,re,im")
        for name, obj in rows:
            values = obj.values if isinstance(obj, StepFunction) else obj
            for i, v in enumerate(np.asarray(values, dtype=complex)):
                print(f"{name},{i},{v.real!r},{v.imag!r}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process and shared by every main call.

    Each subcommand names its cmd_* function rather than holding it; main looks the
    name up when it runs, so a patched handler takes effect whenever it is patched.
    """
    parser = argparse.ArgumentParser(
        prog="vilwav", description="Tree-generated wavelet systems on p-adic Vilenkin groups"
    )
    parser.add_argument(
        "--tol", type=float, default=DEFAULT_TOL,
        help="bound of every `verify` check but the exact vanishing one, of `mask to-tree` "
        "and of the `transform analyze` round trip (times its largest coefficient when that "
        "exceeds 1); finite and > 0 (default %(default)g)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tree_p = sub.add_parser("tree", help="tree file operations")
    tree_sub = tree_p.add_subparsers(dest="tree_command", required=True)
    val = tree_sub.add_parser("validate", help="validate a tree file")
    val.add_argument("path")
    val.set_defaults(handler="cmd_tree_validate")

    build_p = sub.add_parser("build", help="build a wavelet system from a tree file")
    build_p.add_argument("tree")
    build_p.add_argument("-o", "--out", required=True)
    build_p.add_argument("--phases", choices=["file", "zero", "random"], default="file")
    build_p.add_argument("--seed", type=int, default=0)
    build_p.set_defaults(handler="cmd_build")

    verify_p = sub.add_parser("verify", help="verify the system a file's tree and mask generate")
    verify_p.add_argument("system", nargs="?")
    verify_p.add_argument("--level", choices=["spectral", "full"], default="full")
    verify_p.add_argument("--all-trees", type=int, default=None, metavar="P")
    verify_p.add_argument("--jobs", type=int, help="workers for --all-trees, 1..cores (default 1)")
    verify_p.add_argument("--draws", type=int, metavar="K", help="phase draws per tree besides zero (default 0)")
    verify_p.set_defaults(handler="cmd_verify")

    trans_p = sub.add_parser("transform", help="run the filter bank")
    trans_sub = trans_p.add_subparsers(dest="action", required=True)
    ana = trans_sub.add_parser("analyze")
    ana.add_argument("--system", required=True)
    ana.add_argument("--signal", required=True)
    ana.add_argument("--levels", type=int, default=1)
    ana.add_argument("--level", type=int, default=None, help="projection level (default: finest exact)")
    ana.add_argument("-o", "--out", required=True)
    ana.set_defaults(handler="cmd_transform", action="analyze")
    syn = trans_sub.add_parser("synthesize")
    syn.add_argument("--system", required=True)
    syn.add_argument("--pyramid", required=True)
    syn.add_argument("-o", "--out", required=True)
    syn.set_defaults(handler="cmd_transform", action="synthesize")

    mask_p = sub.add_parser("mask", help="mask operations")
    mask_sub = mask_p.add_subparsers(dest="mask_command", required=True)
    m2t = mask_sub.add_parser("to-tree", help="recover the tree behind a mask")
    m2t.add_argument("path")
    m2t.add_argument("-o", "--out", required=True)
    m2t.set_defaults(handler="cmd_mask_to_tree")

    show_p = sub.add_parser("show", help="print system tables")
    show_p.add_argument("table", choices=["phi", "psi", "beta"])
    show_p.add_argument("--system", required=True)
    show_p.add_argument("--format", choices=["json", "csv"], default="json")
    show_p.set_defaults(handler="cmd_show")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.system is None and args.all_trees is None:
        parser.error("verify needs a system file or --all-trees P")
    try:
        if not 0 < args.tol < math.inf:
            raise InputError(f"--tol {args.tol}: expected a finite number > 0")
        size_cap()  # a malformed VILWAV_SIZE_CAP is an input error, whether or not the command reads it
        return globals()[args.handler](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MathError as exc:
        print(f"failed: {exc}")
        return EXIT_MATH
    except MemoryError as exc:  # a table the size cap admits but memory does not hold
        print(f"failed: out of memory: {exc}")
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
