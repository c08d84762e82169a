"""Which vilwav functions the traced run wraps, and the per-layer metrics they give.

Layers are the package's own modules.  Each metric is a self time (span
minus its child spans), a call count, or a work count taken from the
call's arguments or result.
"""

from __future__ import annotations

import statistics

import numpy as np

MODULES = ("tree", "mask", "group", "refinable", "wavelet", "transform", "serialize", "cli")


def _coeffs(grid) -> int:
    """Coefficient values in a grid; a vector value counts each of its entries."""
    return sum(int(np.size(v)) for v in grid.entries.values())


# qualified name -> (fields reported, work counter or None).  A counter gets
# (args, kwargs, result); a work field is named after what it counts.
# Functions with no fields are wrapped only so their time can be attributed.
LAYERS = {
    "tree.enumerate_trees": (("self_s",), None),
    "mask.mask_from_tree": (("self_s",), None),
    "mask.mask_to_tree": (("self_s",), None),
    "mask.check_row_condition": (("self_s",), None),
    "mask.check_vanishing": (("self_s",), None),
    "group.char_kernel_apply": (("calls", "self_s", "cells"), lambda a, k, r: np.size(a[0])),
    "refinable.phi_hat_from_tree": (("self_s",), None),
    "refinable.inverse_transform": (("self_s",), None),
    "refinable.check_elementary": (("self_s",), None),
    "refinable.check_orthonormality_spectral": (("self_s",), None),
    "refinable.translate_dilate": (("calls", "self_s", "cells"), lambda a, k, r: np.size(r.values)),
    "refinable.embed": (("calls", "self_s"), None),
    "refinable.inner_product": (("calls", "self_s"), None),
    "refinable.translated_cell_matrix": (("calls", "self_s", "bytes"), lambda a, k, r: np.size(r) * 16),
    "refinable.all_shifts": ((), None),
    "wavelet.build_system": (("self_s",), None),
    "wavelet.solve_beta": (("self_s",), None),
    "wavelet.psi_time": (("calls", "self_s"), None),
    "wavelet.assemble_refinement_sum": ((), None),
    "wavelet.psi_freq": (("calls", "self_s"), None),
    "wavelet.verify_wavelet_system": (("self_s",), None),
    "wavelet.beta_residual": ((), None),
    "wavelet.shifted_mask_checks": ((), None),
    "transform.project": (("self_s",), None),
    "transform.materialize": (("self_s",), None),
    "transform.analyze_level": (("calls", "self_s", "coeffs"), lambda a, k, r: _coeffs(a[0])),
    "transform.synthesize_level": (
        ("calls", "self_s", "coeffs"),
        lambda a, k, r: _coeffs(a[0]) + sum(_coeffs(d) for d in a[1]),
    ),
    "serialize.dumps": (("self_s", "bytes"), lambda a, k, r: len(r.encode())),
    "serialize.load_json": (("self_s",), None),
    "serialize.system_to_dict": (("self_s",), None),
    "serialize.system_from_dict": (("self_s",), None),
    "serialize.pyramid_to_dict": (("self_s",), None),
    "serialize.pyramid_from_dict": (("self_s",), None),
    "cli.main": (("self_s",), None),
}
TARGETS = {name: counter for name, (_, counter) in LAYERS.items()}

UNITS = {"calls": "count", "self_s": "s", "cells": "cells", "bytes": "B", "coeffs": "count"}

# psi_time is a one-line alias of assemble_refinement_sum; the time route's
# own work is the alias's body, so it is credited to psi_time.
ALIAS_BODY = {"wavelet.psi_time": "wavelet.assemble_refinement_sum"}

# Each named verify check, attributed by the spans verify_wavelet_system calls
# directly.  The Gram check's vstack and product run inline, in verify's self time.
VERIFY = "wavelet.verify_wavelet_system"
VERIFY_CHECKS = {
    "verify.refinement-identity.s": ("wavelet.assemble_refinement_sum", "refinable.embed"),
    "verify.psi-two-route.s": ("wavelet.psi_freq",),
    "verify.gram-orthonormal-family.s": ("refinable.translated_cell_matrix", "refinable.all_shifts"),
    "verify.spectral.s": (
        "mask.check_row_condition",
        "mask.check_vanishing",
        "refinable.check_elementary",
        "refinable.check_orthonormality_spectral",
        "wavelet.beta_residual",
        "wavelet.shifted_mask_checks",
    ),
}

TRACE_METRICS = {"trace.overhead_s": "s", "trace.spans": "count"}


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for fn, (fields, _) in LAYERS.items():
        for f in fields:
            units[f"{fn}.{f}"] = UNITS[f]
    for name in VERIFY_CHECKS:
        units[name] = "s"
    for mod in MODULES:
        units[f"{mod}.errors"] = "count"
    units.update(TRACE_METRICS)
    return units


def layer_values(tracer) -> dict:
    """Per-layer metric values from one traced repetition (trace.* excluded)."""
    rows = tracer.by_name()
    empty = {"calls": 0, "self_s": 0.0, "work": 0, "errors": 0}
    out = {}
    for fn, (fields, _) in LAYERS.items():
        row = rows.get(fn, empty)
        for f in fields:
            out[f"{fn}.{f}"] = row["work"] if f in ("cells", "bytes", "coeffs") else row[f]
    for alias, body in ALIAS_BODY.items():
        out[f"{alias}.self_s"] += sum(s.self_s for s in tracer.children_of(alias, [body]))
    for name, callees in VERIFY_CHECKS.items():
        out[name] = sum(s.duration for s in tracer.children_of(VERIFY, callees))
    for mod in MODULES:
        out[f"{mod}.errors"] = sum(r["errors"] for n, r in rows.items() if n.startswith(mod + "."))
    return out


def summarize(tracers, overhead_s: float) -> dict:
    """Median over traced repetitions of every per-layer metric, with units."""
    units = metric_units()
    per_rep = [layer_values(t) for t in tracers]
    values = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = statistics.median(len(t.spans) for t in tracers)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
