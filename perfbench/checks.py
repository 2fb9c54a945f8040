"""Output checks for every op payload.

Each check returns ``(reason, observed)``: ``reason`` is ``""`` when the
payload is correct, and ``observed`` holds the numbers the benchmark reports
without gating on them (edge error against the bisection tolerance, the
spherical-integral gap).  Reference values come from ``wigner_ldp.oracles``
and from closed forms computed in ``workloads``; statistical bounds are set
wide (about six standard errors or more) so that a correct program passes
on every seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from wigner_ldp import oracles
from workloads import TAIL_X

EXIT_OK, EXIT_INCONCLUSIVE = 0, 4

# dyson.py keeps the bias of its edge predicate below 1e-4 on top of the
# bisection bracket 1e-6 (1 + A); that sum is the accuracy the gate accepts.
EDGE_PREDICATE_BIAS = 1e-4
MASS_TOL = 1e-3          # density total mass on atomless profiles
GOE_TOL = 1e-3           # criterion 3
BLOCK_RATE_TOL = 2e-3    # criterion 6
UPPER_BOUND_SLACK = 1e-6  # criterion 8
MONOTONE_SLACK = 1e-9
ANNEALED_TOL = 3e-2      # criterion 13
TILT_TOL = 0.15          # the mc-heavy validation suite's outlier tolerance
BATCH_EDGE_TOL = 0.25    # top eigenvalue at N = 200 sits within a Tracy-Widom window of the edge


def _json(text: str, command: str) -> dict:
    d = json.loads(text)
    man = d.get("manifest")
    if not isinstance(man, dict) or man.get("command") != command:
        raise ValueError(f"payload lacks a {command!r} manifest")
    return d


def _check_edge(text, facts, code):
    d = _json(text, "edge")
    r = d["r_edge"]
    obs = {}
    if not (math.isfinite(r) and r > 0 and d["l_edge"] == -r):
        return f"edges not symmetric and finite: {d['l_edge']}, {r}", obs
    bisect_tol = 1e-6 * (1.0 + facts["A"])
    if r > facts["edge_bound"] + bisect_tol + EDGE_PREDICATE_BIAS:
        return f"r_edge {r} above the bound {facts['edge_bound']}", obs
    ref = facts.get("edge_ref")
    if ref is not None:
        err = abs(r - ref)
        obs["edge_err_over_bisection_tol"] = err / bisect_tol
        if err > bisect_tol + EDGE_PREDICATE_BIAS:
            return f"r_edge {r} misses the oracle {ref} by {err:.3g}", obs
    return "", obs


def _check_density(text, facts, code):
    lines = text.splitlines()
    if not lines[0].startswith("# "):
        raise ValueError("density payload lacks its manifest line")
    man = json.loads(lines[0][2:])
    if man.get("command") != "density":
        raise ValueError("density payload carries the wrong manifest")
    rows = [ln.split(",") for ln in lines[2:] if not ln.startswith("#")]
    if len(rows) != facts["points"]:
        return f"{len(rows)} rows, expected {facts['points']}", {}
    arr = np.array([[float(c) for c in row] for row in rows])
    grid = np.linspace(-facts["xmax"], facts["xmax"], facts["points"])
    if not np.allclose(arr[:, 0], grid, rtol=0, atol=1e-12):
        return "x column is not the requested grid", {}
    if not (np.all(np.isfinite(arr[:, 1:])) and np.all(arr[:, 1:] >= 0)):
        return "density not finite and nonnegative", {}
    mass = float(lines[-1].split(",")[1])
    # profiles with a zero diagonal block carry an atom at 0 that a grid
    # density cannot integrate; their mass is only bounded
    if facts["atomless"] and abs(mass - 1.0) > MASS_TOL:
        return f"total mass {mass} off by more than {MASS_TOL}", {}
    if mass > 1.0 + MASS_TOL:
        return f"total mass {mass} exceeds 1", {}
    return "", {}


def _check_rate(text, facts, code):
    d = _json(text, "rate")
    I = [rep["I"] for rep in d["reports"]]
    xs = [rep["x"] for rep in d["reports"]]
    if xs != facts["x"]:
        return "reports do not follow the requested x", {}
    obs = {"iterations": sum(rep["diagnostics"].get("iterations", 0) for rep in d["reports"])}
    for x, v in zip(xs, I):
        if not (math.isfinite(v) and v >= 0):
            return f"I({x}) = {v} not finite and nonnegative", obs
        if v > x * x / (4 * facts["a"]) + UPPER_BOUND_SLACK:
            return f"I({x}) = {v} above x^2/(4a)", obs
        if facts["kind"] == "constant" and abs(v - oracles.goe_rate(x)) > GOE_TOL:
            return f"I({x}) = {v} misses goe_rate {oracles.goe_rate(x)}", obs
        if "block" in facts:
            al, s1, s2 = facts["block"]
            ref = oracles.block_rate(
                al, lambda y: oracles.goe_rate(y / math.sqrt(s1)),
                lambda y: oracles.goe_rate(y / math.sqrt(s2)), x)
            if abs(v - ref) > BLOCK_RATE_TOL:
                return f"I({x}) = {v} misses the block composition {ref}", obs
    if any(b < a - MONOTONE_SLACK for a, b in zip(I, I[1:])):
        return f"I decreases along the sweep: {I}", obs
    return "", obs


def _check_validate(text, facts, code):
    d = _json(text, "validate")
    failed = [c["name"] for c in d["checks"] if not c["pass"]]
    if failed or not d["passed"]:
        return f"validation checks failed: {failed}", {}
    return "", {}


def _check_mc_tail(text, facts, code):
    d = _json(text, "mc tail")
    pts = d["points"]
    if [p["N"] for p in pts] != facts["N"]:
        return "tail points do not follow the requested N", {}
    one_sided = 0
    for p in pts:
        if not (0 <= p["hits"] <= p["samples"] == facts["samples"]):
            return f"hit count {p['hits']} out of range", {}
        if p["p_hat"] != p["hits"] / p["samples"]:
            return "p_hat is not hits/samples", {}
        if not (p["rate_lo"] <= p["rate"] <= p["rate_hi"]):
            return f"rate {p['rate']} outside [{p['rate_lo']}, {p['rate_hi']}]", {}
        if p["one_sided"] != (p["hits"] == 0):
            return "one_sided does not mark the zero-hit points", {}
        one_sided += p["one_sided"]
    if code != (EXIT_INCONCLUSIVE if one_sided else EXIT_OK):
        return f"exit code {code} does not match {one_sided} one-sided points", {}
    if abs(d["reference_rate"] - oracles.goe_rate(TAIL_X)) > GOE_TOL:
        return f"reference rate {d['reference_rate']} misses goe_rate", {}
    return "", {"one_sided": one_sided}


def _check_spherical(text, facts, code):
    d = _json(text, "mc spherical")
    if not all(math.isfinite(d[k]) for k in ("estimate", "stderr", "reference_J")):
        return "spherical estimate not finite", {}
    if d["stderr"] < 0:
        return "negative stderr", {}
    return "", {"abs_err": abs(d["estimate"] - d["reference_J"]), "theta": facts["theta"]}


def _check_annealed(text, facts, code):
    d = _json(text, "mc annealed")
    gap = abs(d["estimate"] - d["reference_K"])
    if gap > ANNEALED_TOL:
        return f"|estimate - K| = {gap:.3g} above {ANNEALED_TOL}", {}
    if d["window_hits"] < 1:
        return "empty window", {}
    return "", {"window_hits": d["window_hits"]}


def _block_counts(weights, N):
    c = np.concatenate([[0.0], np.cumsum(weights)])
    t = (np.arange(N) + 0.5) / N
    b = np.clip(np.searchsorted(c, t, side="right") - 1, 0, len(weights) - 1)
    return np.bincount(b, minlength=len(weights)).astype(float)


def _check_dirichlet(text, facts, code):
    d = _json(text, "mc dirichlet")
    samples = d["manifest"]["options"]["samples"]
    a = _block_counts(facts["weights"], facts["N"]) / 2.0
    a0 = a.sum()
    if not np.allclose(d["mean_exact"], a / a0, rtol=0, atol=1e-12):
        return "mean_exact is not the Dirichlet mean", {}
    var = a * (a0 - a) / (a0 * a0 * (a0 + 1.0))
    bound = 6.0 * math.sqrt(float(var.max()) / samples)
    if d["max_mean_dev"] > bound:
        return f"mean deviation {d['max_mean_dev']:.3g} above six standard errors", {}
    return "", {}


def _check_tilt(text, facts, code):
    d = _json(text, "mc tilt")
    gap = abs(d["mean_lambda1"] - facts["x"])
    if gap > TILT_TOL:
        return f"tilted outlier {d['mean_lambda1']} misses x = {facts['x']}", {}
    return "", {}


def _check_batch(text, facts, code):
    d = _json(text, "mc batch")
    if abs(sum(d["rho_mean"]) - 1.0) > 1e-9:
        return "rho_mean is not a mass vector", {}
    if abs(d["lambda1_mean"] - facts["edge_ref"]) > BATCH_EDGE_TOL:
        return f"mean top eigenvalue {d['lambda1_mean']} far from the edge", {}
    return "", {}


_CHECKS = {
    "edge": _check_edge,
    "density": _check_density,
    "rate": _check_rate,
    "validate": _check_validate,
    "mc tail": _check_mc_tail,
    "mc spherical": _check_spherical,
    "mc annealed": _check_annealed,
    "mc dirichlet": _check_dirichlet,
    "mc tilt": _check_tilt,
    "mc batch": _check_batch,
}


def check(kind: str, facts: dict, code, text: str | None) -> tuple[str, dict]:
    """Failure reason (``""`` when correct) and observed numbers of one op.

    An op fails when it raised (``code`` is None), exited with anything but
    0 or 4 (4 only for a one-sided tail point), or its payload is wrong.
    """
    if code is None:
        return "raised", {}
    if code not in (EXIT_OK, EXIT_INCONCLUSIVE) or (code == EXIT_INCONCLUSIVE and kind != "mc tail"):
        return f"exit code {code}", {}
    if text is None:
        return "no payload written", {}
    try:
        return _CHECKS[kind](text, facts, code)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return f"malformed payload: {type(e).__name__}: {e}", {}
