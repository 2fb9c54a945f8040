"""Seeded op lists for the four benchmark workloads.

An op is one CLI command, given as the argv that ``wigner_ldp.cli.main``
receives (without ``--out``), plus the facts its output check needs.  The
program sees only the generated profile files and the argv.  Ops come in
rounds; every round has the same mix of commands and profile classes with
fresh seeded parameters, and a run executes a whole number of rounds fixed
by ``--seconds``, so that the op mix and the latency percentiles do not
depend on where a clock stops.

Why each workload exists:

* ``spectrum`` -- ``edge`` and ``density --points 501`` on a fresh profile per
  op, so every ``support_edge`` call misses the per-profile cache and nearly
  all time goes to the complex Dyson solve near the real axis.  Two density
  ops per edge op keep the median inside one latency cluster instead of on
  the gap between the cheap edge ops and the dearer density ops.
* ``rate_curve`` -- per profile one ``rate`` sweep above the edge and one
  ``validate --suite identities``: the multi-start optimizer and the
  real-axis solves dominate, and the per-profile caches are reused (one edge,
  many x).
* ``mc_tail`` -- criterion 14's shape (constant profile, x = 2.2, gaussian
  N = 20,40,80 and rademacher N = 40) with few samples and many seeds: the
  draw, assembly and Cholesky test do nearly all the work.  Two gaussian ops
  per rademacher op keep the median inside the gaussian cluster.
* ``mc_sphere`` -- ``mc spherical`` at criterion 12's inputs (both thetas),
  ``mc annealed`` at criterion 13's, plus ``mc dirichlet``, ``mc tilt`` and
  ``mc batch``: the sphere-draw loops and ``eigh``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("spectrum", "rate_curve", "mc_tail", "mc_sphere")

# Seconds one round takes on the reference machine (2-core Xeon, one BLAS
# thread).  A run executes round(seconds / NOMINAL_ROUND_S) whole rounds, so
# both sides of a comparison do identical work and the op count, and with it
# the tail percentile, does not depend on machine speed.
NOMINAL_ROUND_S = {"spectrum": 10.0, "rate_curve": 6.5, "mc_tail": 2.5, "mc_sphere": 9.7}

TAIL_X = 2.2            # criterion 14
SPHERE_N, SPHERE_X = 150, 3.0   # criterion 12
ANNEALED = {"theta": 0.6, "phi": 1.0, "delta": 1.0, "N": 200}  # criterion 13


@dataclass
class Op:
    kind: str                 # command label, e.g. "edge", "mc tail"
    argv: list[str]           # cli argv without --out
    facts: dict = field(default_factory=dict)  # inputs of the output check


@dataclass
class Plan:
    workload: str
    seed: int
    rounds: list[list[Op]]
    files: dict[str, str]     # relative path -> text of every input file

    def digest(self) -> str:
        """SHA-256 over every op argv and every input file."""
        h = hashlib.sha256()
        for rnd in self.rounds:
            for op in rnd:
                h.update(json.dumps(op.argv).encode())
        for path in sorted(self.files):
            h.update(path.encode() + b"\0" + self.files[path].encode() + b"\0")
        return h.hexdigest()


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def _expanded(cfg: dict, grid: np.ndarray | None = None):
    """(weights, sigma) of a config, computed here without the package."""
    kind = cfg["kind"]
    if kind == "constant":
        return np.array([1.0]), np.array([[1.0]])
    if kind == "piecewise_constant":
        return np.asarray(cfg["weights"]), np.asarray(cfg["sigma"])
    if kind == "wishart":
        a = cfg["alpha"]
        return np.array([1.0 / (1 + a), a / (1 + a)]), np.array([[0.0, 1.0], [1.0, 0.0]])
    if kind == "block":
        a = cfg["alpha"]
        return np.array([a, 1 - a]), np.diag([cfg["sigma1"], cfg["sigma2"]])
    if kind == "grid":
        p, n = cfg["p"], grid.shape[0]
        blocks = np.minimum(((np.arange(n) + 0.5) / n * p).astype(int), p - 1)
        s = np.zeros((p, p))
        c = np.zeros((p, p))
        np.add.at(s, (blocks[:, None], blocks[None, :]), grid)
        np.add.at(c, (blocks[:, None], blocks[None, :]), 1.0)
        return np.full(p, 1.0 / p), s / c
    raise ValueError(kind)


def _facts(cfg: dict, grid: np.ndarray | None = None) -> dict:
    w, s = _expanded(cfg, grid)
    # 2 sqrt(max row sum of sigma w) bounds the right edge; it is the edge
    # itself for constant and scalar block profiles
    facts = {
        "kind": cfg["kind"],
        "A": float(s.max()),
        "a": float(w @ s @ w),
        "edge_bound": float(2.0 * math.sqrt(float(np.max(s @ w)))),
        "atomless": bool(np.all(np.diag(s) > 0)),
        "weights": w.tolist(),
    }
    if cfg["kind"] == "constant":
        facts["edge_ref"] = 2.0
    elif cfg["kind"] == "piecewise_constant" and len(w) == 1:
        facts["edge_ref"] = 2.0 * math.sqrt(s[0, 0])
    elif cfg["kind"] == "wishart":
        a = cfg["alpha"]
        facts["edge_ref"] = (1 + math.sqrt(a)) / math.sqrt(1 + a)
    elif cfg["kind"] == "block":
        facts["edge_ref"] = facts["edge_bound"]
        facts["block"] = [cfg["alpha"], cfg["sigma1"], cfg["sigma2"]]
    return facts


# Every profile is a template with each parameter jittered by the seed: each
# op sees a fresh profile (a cache miss), while the cost of a round stays
# close to constant across seeds, which keeps the run-to-run spread small.
JITTER = 0.05
TEMPLATE_SEED = 2024


def _j(rng, v: float) -> float:
    return float(v * rng.uniform(1.0 - JITTER, 1.0 + JITTER))


def _random_pc(rng, p: int) -> dict:
    """Piecewise-constant profile: a fixed random p-block template, jittered."""
    t = np.random.default_rng([TEMPLATE_SEED, p])
    w = t.dirichlet(np.full(p, 5.0)) * rng.uniform(1.0 - JITTER, 1.0 + JITTER, p)
    s = t.uniform(0.2, 2.0, size=(p, p)) * rng.uniform(1.0 - JITTER, 1.0 + JITTER, (p, p))
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return {"kind": "piecewise_constant", "weights": w.tolist(), "sigma": ((s + s.T) / 2.0).tolist()}


def _block(rng) -> dict:
    return {"kind": "block", "alpha": _j(rng, 0.5), "sigma1": _j(rng, 1.0), "sigma2": _j(rng, 4.0)}


def _grid_samples(rng, n: int = 24) -> np.ndarray:
    """Samples of a smooth continuous profile on the midpoints of an n-grid."""
    t = (np.arange(n) + 0.5) / n
    s, u = np.meshgrid(t, t, indexing="ij")
    c0, c1, c2 = _j(rng, 0.5), _j(rng, 0.6), _j(rng, 0.5)
    return c0 + c1 * np.cos(np.pi * (s - u)) ** 2 + c2 * (s + u) / 2.0


class _Files:
    """Collects input files under ``in/`` and their check facts."""

    def __init__(self):
        self.files: dict[str, str] = {}

    def profile(self, name: str, cfg: dict, grid: np.ndarray | None = None):
        if grid is not None:
            gname = f"{name}.txt"
            self.files[f"in/{gname}"] = "\n".join(
                " ".join(repr(float(v)) for v in row) for row in grid
            ) + "\n"
            cfg = dict(cfg, file=gname)
        path = f"in/{name}.json"
        self.files[path] = json.dumps(cfg, sort_keys=True) + "\n"
        return path, _facts(cfg, grid)


def _seed(rng) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _spectrum(rng, files: _Files, r: int, tiny: bool) -> list[Op]:
    # four profile classes, each with one edge op and two density ops
    ops = []
    for j in range(4):
        for kind in ("edge", "density", "density"):
            name = f"s{r:02d}_{len(ops):02d}"
            if j == 0:
                cfg = {"kind": "piecewise_constant", "weights": [1.0],
                       "sigma": [[_j(rng, 1.0)]], "label": "scaled-constant"}
            elif j == 1:
                cfg = {"kind": "wishart", "alpha": _j(rng, 2.0)}
            elif j == 2:
                cfg = _block(rng)
            else:
                cfg = _random_pc(rng, 8)
            path, facts = files.profile(name, cfg)
            if kind == "edge":
                ops.append(Op("edge", ["edge", "--profile", path], facts))
            else:
                bound = 2.0 * math.sqrt(facts["A"]) + 0.2
                points = 201 if tiny else 501
                ops.append(Op("density", [
                    "density", "--profile", path, "--xmin", repr(-bound), "--xmax", repr(bound),
                    "--points", str(points)], dict(facts, points=points, xmax=bound)))
    return ops


def _rate_curve(rng, files: _Files, r: int, tiny: bool) -> list[Op]:
    profiles = [
        files.profile("constant", {"kind": "constant"}),
        files.profile(f"r{r:02d}_1", {"kind": "wishart", "alpha": _j(rng, 2.0)}),
        files.profile(f"r{r:02d}_2", _block(rng)),
        files.profile(f"r{r:02d}_3", {"kind": "grid", "p": 3}, _grid_samples(rng)),
    ]
    offsets = (0.1, 0.6) if tiny else (0.05, 0.15, 0.3, 0.5, 0.8, 1.2)
    ops = []
    for path, facts in profiles:
        xs = [facts["edge_bound"] + d for d in offsets]
        ops.append(Op("rate", [
            "--seed", _seed(rng), "--format", "json", "rate", "--profile", path,
            "--x", ",".join(repr(x) for x in xs)], dict(facts, x=xs)))
        if not tiny:
            ops.append(Op("validate", [
                "--seed", _seed(rng), "validate", "--profile", path, "--suite", "identities"],
                facts))
    return ops


def _mc_tail(rng, files: _Files, r: int, tiny: bool) -> list[Op]:
    path, facts = files.profile("constant", {"kind": "constant"})
    samples = "256" if tiny else "4096"
    ops = []
    for dist, Ns in (("gaussian", "20,40,80"), ("rademacher", "40"), ("gaussian", "20,40,80")):
        ops.append(Op("mc tail", [
            "--seed", _seed(rng), "--threads", "1", "mc", "tail", "--profile", path,
            "--x", repr(TAIL_X), "--N", Ns, "--samples", samples, "--dist", dist],
            dict(facts, dist=dist, N=[int(n) for n in Ns.split(",")], samples=int(samples))))
    return ops


def _mc_sphere(rng, files: _Files, r: int, tiny: bool) -> list[Op]:
    const, cfacts = files.profile("constant", {"kind": "constant"})
    block, bfacts = files.profile(f"m{r:02d}", _block(rng))
    n_sphere = "2000" if tiny else "100000"

    def op(kind, argv, facts, fmt=()):
        return Op(kind, ["--seed", _seed(rng), *fmt, "--threads", "1", "mc", *argv], facts)

    x_tilt = bfacts["edge_ref"] + 0.5
    ops = [
        op("mc dirichlet", ["dirichlet", "--profile", block, "--N", "100",
                            "--samples", "2000" if tiny else "20000"], dict(bfacts, N=100)),
        op("mc annealed", ["annealed", "--profile", const, "--theta", repr(ANNEALED["theta"]),
                           "--phi", repr(ANNEALED["phi"]), "--delta", repr(ANNEALED["delta"]),
                           "--N", str(ANNEALED["N"]), "--samples", n_sphere], cfacts),
        op("mc tilt", ["tilt", "--profile", block, "--x", repr(x_tilt), "--N", "200",
                       "--samples", "25"], dict(bfacts, x=x_tilt)),
        op("mc batch", ["batch", "--profile", block, "--N", "200",
                        "--samples", "4" if tiny else "50"], bfacts, fmt=("--format", "json")),
    ]
    for theta in (0.3, 1.0):
        ops.append(op("mc spherical", [
            "spherical", "--profile", const, "--x", repr(SPHERE_X), "--theta", repr(theta),
            "--N", str(SPHERE_N), "--samples", n_sphere], dict(cfacts, theta=theta)))
    return ops


_BUILDERS = {
    "spectrum": _spectrum,
    "rate_curve": _rate_curve,
    "mc_tail": _mc_tail,
    "mc_sphere": _mc_sphere,
}


def n_rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def build(workload: str, seed: int, seconds: float, tiny: bool = False) -> Plan:
    """The op list of one run, a pure function of its arguments.

    ``tiny`` gives one round of shrunken ops, for the smoke test.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    files = _Files()
    n = 1 if tiny else n_rounds(workload, seconds)
    rounds = [_BUILDERS[workload](rng, files, r, tiny) for r in range(n)]
    return Plan(workload, seed, rounds, files.files)
