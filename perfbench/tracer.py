"""Outside-in tracing: timers wrapped around the package's public functions.

``install`` replaces each traced function in every ``wigner_ldp`` module
global that holds it, which is where callers look it up, so that calls from
``cli`` and calls between the layers both pass through a timer.  Nothing in
the package changes.  Besides the public functions it wraps three lookups
that cross a module boundary: ``ratefn._solve_real`` (the real-axis solve
``ratefn`` takes from ``dyson``), ``mc.dpotrf`` (the Cholesky test of the
tail estimator) and ``numpy.linalg.eigh`` (as ``mc`` calls it).  The inner
loop helpers ``f_hat_gradient`` and ``project_simplex`` stay unwrapped; their
per-call cost is close to a timer's.

A span records its layer, its inclusive time and the time of the outermost
``dyson`` spans nested in it, which gives ``ratefn.rate_function.self_ms``
and the per-layer shares.  ``Tracer`` is not thread-safe; the benchmark runs
every Monte Carlo command with ``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("profiles", "dyson", "ratefn", "mc")

TRACED = {
    "profiles": ("load_profile_file", "load_profile", "discretize"),
    "dyson": ("solve_dyson", "solve_dyson_finite", "stieltjes_total", "stieltjes_inverse",
              "support_edge", "spectral_measure", "log_potential"),
    "ratefn": ("eval_J", "eval_phi", "eval_K", "eval_F", "eval_F_hat", "sup_theta",
               "rate_function", "rate_function_concave", "outlier_equation_z",
               "find_tilt_theta"),
    "mc": ("sample_matrix", "eig_top", "projected_empirical", "spherical_integral_mc",
           "annealed_integral_mc", "profile_dirichlet_check", "tilted_outlier_check",
           "collect_batch", "tail_estimate", "quantile_spectrum_matrix"),
}

TAIL_KEYS = ("N20", "N40", "N80", "N40-rademacher")


class _Frame:
    __slots__ = ("name", "layer", "dyson_inside")

    def __init__(self, name, layer):
        self.name, self.layer, self.dyson_inside = name, layer, 0.0


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.depth = defaultdict(int)           # open spans per layer
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)          # seconds, inclusive
        self.no_dyson = defaultdict(float)      # inclusive minus nested dyson
        self.layer_time = defaultdict(float)    # outermost spans per layer
        self.lib_time = 0.0                     # outermost spans of any layer
        self.count = defaultdict(float)         # counters filled by hooks
        self._tail_last_end: dict[int, float] = {}

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, layer, fn, hook=None):
        sig = None
        if hook is not None:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):  # compiled LAPACK wrappers have none
                pass

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(name, layer)
            self.stack.append(frame)
            self.depth[layer] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._close(frame, t1 - t0)
            if hook is not None:
                bound = sig.bind(*args, **kwargs).arguments if sig is not None else args
                hook(self, bound, out, t0, t1)
            return out

        return traced

    def _close(self, frame, dt):
        self.stack.pop()
        self.depth[frame.layer] -= 1
        self.calls[frame.name] += 1
        self.incl[frame.name] += dt
        self.no_dyson[frame.name] += dt - frame.dyson_inside
        if self.depth[frame.layer] == 0:
            self.layer_time[frame.layer] += dt
        if self.stack:
            self.stack[-1].dyson_inside += dt if frame.layer == "dyson" else frame.dyson_inside
        else:
            self.lib_time += dt

    def inside(self, name) -> bool:
        return any(f.name == name for f in self.stack)

    # -- metrics -------------------------------------------------------------

    def metrics(self, n_ops: int, op_seconds: float) -> dict:
        """Per-layer metrics of the traced phase: name -> (value, unit)."""
        c, inc = self.calls, self.incl
        cnt = self.count

        def ms(name):
            return (1e3 * inc[name] / c[name] if c[name] else 0.0, "ms/call")

        def calls(name):
            return (c[name], "count")

        def ratio(num, den):
            return num / den if den else 0.0

        m = {"cli.self_ms": (1e3 * ratio(op_seconds - self.lib_time, n_ops), "ms/op")}
        for layer in LAYERS:
            m[f"{layer}.share"] = (ratio(self.layer_time[layer], op_seconds), "ratio")
        for name in ("profiles.load_profile_file", "dyson.support_edge", "dyson.log_potential",
                     "dyson.stieltjes_inverse", "dyson.stieltjes_total", "dyson._solve_real",
                     "ratefn.eval_J", "ratefn.eval_F"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.ms"] = ms(name)
        sm = "dyson.spectral_measure"
        m[f"{sm}.calls"] = calls(sm)
        m[f"{sm}.us_per_point"] = (1e6 * ratio(inc[sm], cnt["spectral_points"]), "us/point")
        rf = "ratefn.rate_function"
        m[f"{rf}.calls"] = calls(rf)
        m[f"{rf}.self_ms"] = (1e3 * ratio(self.no_dyson[rf], c[rf]), "ms/call")
        m[f"{rf}.iterations"] = (int(cnt["rate_iterations"]), "count")
        m["ratefn.converged_starts_ratio"] = (
            ratio(cnt["rate_converged_starts"], cnt["rate_starts"]), "ratio")
        m["ratefn.find_tilt_theta.ms"] = ms("ratefn.find_tilt_theta")
        for key in TAIL_KEYS:
            m[f"mc.tail.us_per_matrix.{key}"] = (
                1e6 * ratio(cnt[f"tail_s.{key}"], cnt[f"tail_matrices.{key}"]), "us/matrix")
        matrices = cnt["tail_matrices"]
        factor_s = inc["mc.dpotrf"]
        m["mc.tail.factor_us_per_matrix"] = (1e6 * ratio(factor_s, matrices), "us/matrix")
        m["mc.tail.draw_assemble_us_per_matrix"] = (
            1e6 * ratio(inc["mc.tail_estimate"] - factor_s, matrices), "us/matrix")
        m["mc.tail.factorizations"] = (c["mc.dpotrf"], "count")
        m["mc.tail.matrices"] = (int(matrices), "count")
        m["mc.tail.hit_ratio"] = (ratio(cnt["tail_hits"], c["mc.dpotrf"]), "ratio")
        m["mc.tail.one_sided"] = (int(cnt["tail_one_sided"]), "count")
        sph = "mc.spherical_integral_mc"
        m[f"{sph}.ms"] = ms(sph)
        m["mc.sphere.samples_per_s"] = (ratio(cnt["sphere_samples"], inc[sph]), "1/s")
        m["mc.annealed_integral_mc.ms"] = ms("mc.annealed_integral_mc")
        m["mc.annealed.window_hit_ratio"] = (
            ratio(cnt["annealed_hits"], cnt["annealed_samples"]), "ratio")
        for name in ("mc.profile_dirichlet_check", "mc.quantile_spectrum_matrix",
                     "mc.collect_batch", "mc.tilted_outlier_check"):
            m[f"{name}.ms"] = ms(name)
        m["mc.eigh.per_matrix"] = (ratio(cnt["batch_eigh"], cnt["batch_matrices"]), "1/matrix")
        return m


# ---------------------------------------------------------------------------
# hooks: counts taken from arguments and results at the boundary
# ---------------------------------------------------------------------------


def _spectral_measure(t, a, out, t0, t1):
    t.count["spectral_points"] += a["points"]


def _rate_function(t, a, out, t0, t1):
    d = out.diagnostics
    if "iterations" in d:
        t.count["rate_iterations"] += d["iterations"]
        t.count["rate_converged_starts"] += d["converged_starts"]
        t.count["rate_starts"] += out.starts_used


def _dpotrf(t, args, out, t0, t1):
    n = args[0].shape[0]
    t._tail_last_end[n] = t1
    t.count["tail_hits"] += out[1] != 0


def _tail_estimate(t, a, out, t0, t1):
    # split the call at the end of each size's last factorization; the
    # remainder after the last one belongs to the last size
    dist = a.get("dist", "gaussian")
    start = t0
    for i, n in enumerate(a["N_list"]):
        end = t1 if i == len(a["N_list"]) - 1 else t._tail_last_end.get(n, start)
        key = f"N{n}" if dist == "gaussian" else f"N{n}-{dist}"
        t.count[f"tail_s.{key}"] += end - start
        t.count[f"tail_matrices.{key}"] += a["samples"]
        t.count["tail_matrices"] += a["samples"]
        start = end
    t.count["tail_one_sided"] += sum(p.one_sided for p in out)
    t._tail_last_end.clear()


def _spherical(t, a, out, t0, t1):
    t.count["sphere_samples"] += a["samples"]


def _annealed(t, a, out, t0, t1):
    t.count["annealed_hits"] += out.hits
    t.count["annealed_samples"] += a["samples"]


def _collect_batch(t, a, out, t0, t1):
    t.count["batch_matrices"] += a["samples"]


def _eigh(t, args, out, t0, t1):
    if t.inside("mc.collect_batch"):
        t.count["batch_eigh"] += 1


HOOKS = {
    "dyson.spectral_measure": _spectral_measure,
    "ratefn.rate_function": _rate_function,
    "mc.tail_estimate": _tail_estimate,
    "mc.spherical_integral_mc": _spherical,
    "mc.annealed_integral_mc": _annealed,
    "mc.collect_batch": _collect_batch,
}


def install(tracer: Tracer) -> None:
    """Route every traced lookup in the package through ``tracer``."""
    import numpy

    import wigner_ldp

    mods = [wigner_ldp] + [importlib.import_module(f"wigner_ldp.{m}")
                           for m in ("profiles", "dyson", "ratefn", "mc", "oracles", "cli")]
    for layer, names in TRACED.items():
        home = importlib.import_module(f"wigner_ldp.{layer}")
        for name in names:
            orig = getattr(home, name)
            full = f"{layer}.{name}"
            traced = tracer.wrap(full, layer, orig, HOOKS.get(full))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
    ratefn = importlib.import_module("wigner_ldp.ratefn")
    mc = importlib.import_module("wigner_ldp.mc")
    ratefn._solve_real = tracer.wrap("dyson._solve_real", "dyson", ratefn._solve_real)
    mc.dpotrf = tracer.wrap("mc.dpotrf", "mc", mc.dpotrf, _dpotrf)
    numpy.linalg.eigh = tracer.wrap("mc.eigh", "mc", numpy.linalg.eigh, _eigh)
