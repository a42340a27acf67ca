"""Span recorder for traced benchmark runs.

Traced runs wrap the library's public layer functions at start-up (and
every copy of them imported into another module, such as
``strichartz.curve_sum``), so nested calls are recorded too. Each span
holds its layer name, start, end, parent span, the op that caused it, the
benchmark phase ("setup" or a pass index) and work units computed from the
call's inputs. While ``memory`` is on, every span also records the peak of
tracemalloc-traced memory above its starting level. Spans stay in memory
until the worker writes them out at exit.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

PACKAGE = "dispersive_lab"

def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    if len(args) > index:
        return args[index]
    return default


def _signature_cells(b, N, d):
    """(2bN+1)(2bN^d+1): cells of the full signature grid of b-tuples."""
    return (2 * b * N + 1) * (2 * b * N**d + 1)


def _count_units(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    return {"cells": _signature_cells(spec.b, spec.N, spec.d),
            "spec": f"{spec.d},{spec.b},{spec.N}"}


def _even_norm_units(args, kwargs, result):
    vec = _arg(args, kwargs, 0, "vec")
    b = _arg(args, kwargs, 1, "b")
    d = _arg(args, kwargs, 2, "d")
    return {"cells": _signature_cells(b, vec.N, d)}


def _curve_sum_units(args, kwargs, result):
    points = len(_arg(args, kwargs, 2, "x"))
    return {"points": points, "mode_evals": points * len(_arg(args, kwargs, 0, "coeff"))}


def _profile_units(args, kwargs, result):
    config = _arg(args, kwargs, 3, "config")
    samples = config.samples if config is not None else 1_000_000
    return {"points": samples * len(_arg(args, kwargs, 2, "lams"))}


def _offcurve_units(args, kwargs, result):
    return {"tuples": (2 * _arg(args, kwargs, 1, "N") + 1) ** 3}


def _envelope_units(args, kwargs, result):
    return {"skipped": len(result.skipped) if result is not None else 0}


def _phi_dense_units(args, kwargs, result):
    return {"coeffs": _arg(args, kwargs, 1, "k_max") + 1}


def _picard_units(args, kwargs, result):
    if result is None:
        return {}
    steps = result[1:]
    exact = sum(1 for st in steps if st.representation == "exact")
    return {"iterations": len(steps), "exact_iterations": exact,
            "sampled_iterations": len(steps) - exact}


def _product_units(args, kwargs, result):
    a, b = args[0], _arg(args, kwargs, 1, "other")
    size = (lambda f: len(f.terms)) if hasattr(a, "terms") else (lambda f: len(f.coeff))
    return {"term_pairs": size(a) * size(b)}


def _modes_units(args, kwargs, result):
    return {"modes": len({key[0] for key in _arg(args, kwargs, 0, "u").terms})}


def _one(key):
    return lambda args, kwargs, result: {key: 1}


# (layer name, module, attribute path, units). The attribute path names a
# function of the module or a method of one of its classes.
LAYERS = (
    ("kernels.curve_sum", "kernels", "curve_sum", _curve_sum_units),
    ("strichartz.level_set_profile", "strichartz", "level_set_profile", _profile_units),
    ("strichartz.even_norm", "strichartz", "even_norm", _even_norm_units),
    ("strichartz.k_lower_envelope", "strichartz", "k_lower_envelope", _envelope_units),
    ("counting.count_S", "counting", "count_S", _count_units),
    ("counting.power_sum_distribution", "counting", "power_sum_distribution", _count_units),
    ("counting.max_offcurve_solution_count", "counting", "max_offcurve_solution_count",
     _offcurve_units),
    ("counting.mobius_phi_sieve", "counting", "mobius_phi_sieve", None),
    ("counting.ramanujan_sum", "counting", "ramanujan_sum", None),
    ("weyl.fourier_transform_quad", "weyl", "BumpSpec.fourier_transform_quad", None),
    ("weyl.phi_hat", "weyl", "PhiData.phi_hat", _one("coeffs")),
    ("weyl.phi_hat_dense", "weyl", "PhiData.phi_hat_dense", _phi_dense_units),
    ("weyl.phi_hat_max_scan", "weyl", "phi_hat_max_scan", None),
    ("weyl.k1_at_arc", "weyl", "KernelDecomposition.k1_at_arc", _one("evals")),
    ("weyl.weyl_sum", "weyl", "weyl_sum", None),
    ("kdv.picard_solve", "kdv", "picard_solve", _picard_units),
    ("kdv.nonlinear_term", "kdv", "nonlinear_term", None),
    ("kdv.duhamel", "kdv", "duhamel", None),
    ("kdv.gauge_transform", "kdv", "gauge_transform", None),
    ("kdv.residual", "kdv", "residual", None),
    ("kdv.illposedness_scan", "kdv", "illposedness_scan", None),
    ("torus.product", "torus", "HarmonicTrajectory.product", _product_units),
    ("torus.product", "torus", "FourierSeries.product", _product_units),
    ("torus.at_time", "torus", "HarmonicTrajectory.at_time", None),
    ("norms.xsb_norm", "norms", "xsb_norm", _modes_units),
    ("norms.y_s_norm", "norms", "y_s_norm", _modes_units),
    ("norms.duhamel_forcing_bound", "norms", "duhamel_forcing_bound", _modes_units),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    """Records spans for the layer calls made while it is installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self.phase = None
        self.memory = False
        self._stack: list[dict] = []
        self._patches: list[tuple] = []

    # -- wrapping -------------------------------------------------------

    def install(self):
        """Replace every layer function (and its imported copies) by a wrapper."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for layer, module, path, units in LAYERS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(layer, original, units)
            self._patch(owner, attr, wrapped)
            if not cls_path:
                for mod in modules:
                    if mod is not owner and mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, layer, fn, units):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open(layer)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer.close(rec, error)
                if units is not None:
                    rec["units"] = units(args, kwargs, result)

        return traced

    # -- spans ----------------------------------------------------------

    def open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None,
               "op": self.op, "phase": self.phase, "error": None}
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            rec["_base"] = rec["_peak"] = current
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        return rec

    def close(self, rec: dict, error: str | None = None):
        rec["end"] = time.perf_counter()
        rec["error"] = error
        self._stack.pop()
        if "_base" in rec:
            peak = max(rec.pop("_peak"), tracemalloc.get_traced_memory()[1])
            rec["peak_bytes"] = peak - rec.pop("_base")
            if self._stack and "_peak" in self._stack[-1]:
                self._stack[-1]["_peak"] = max(self._stack[-1]["_peak"], peak)
            tracemalloc.reset_peak()
