"""Command-line front end.

Exit codes: 0 success, 2 usage or config error (any argument the library
rejects raises UsageError where it enters), 3 numeric failure (including
failed validation checks), 4 statistically inconclusive Monte Carlo.

Each command computes and returns (exit code, JSON body, CSV table or None);
`_run` loads the profile, builds the manifest (command, profile label, the
command's parsed options, seed, version) and writes the payload.  Wall time
goes to stderr only, and the thread count is excluded from the manifest, so
equal-seed reruns produce byte-identical payloads regardless of thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__, dyson, mc, ratefn
from .dyson import EDGE_GAP_TOL, ConvergenceError, spectral_measure, stieltjes_total, support_edge
from .mc import InconclusiveError
from .profiles import ProfileConfigError, UsageError, VarianceProfile, _count, _finite, load_profile_file
from .ratefn import eval_J, rate_function, rate_function_concave, rate_sweep

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_INCONCLUSIVE = 0, 2, 3, 4

# parsed arguments that are not options of the command: they stay out of the manifest
_NOT_OPTIONS = frozenset(
    ("command", "mc_command", "fn", "profile", "seed", "threads", "out", "format")
)


def _comma_list(text: str, item=float) -> list:
    """The one parser of a comma-separated option: one or more numbers, blank items skipped."""
    try:
        vals = [item(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:  # an item that is no number
        vals = []
    if not vals:
        raise argparse.ArgumentTypeError(f"not a nonempty comma-separated list of {item.__name__}s: {text!r}")
    return vals


def _load(path) -> VarianceProfile:
    prof = load_profile_file(path)
    if not isinstance(prof, VarianceProfile):
        raise ProfileConfigError("this command needs a block profile; give the grid a block count p")
    return prof


def _mass_option(prof: VarianceProfile, args, name: str) -> np.ndarray:
    """--phi/--psi: p nonnegative masses with a positive sum, or the weights when
    absent.  Returns them normalised and stores them so on args, so the
    estimator, the reference and the manifest all see the same vector."""
    values = getattr(args, name)
    v = prof.weights if values is None else _finite(values, f"--{name}", "nonnegative")
    if v.shape != (prof.p,) or not v.sum() > 0:
        raise UsageError(f"--{name} needs {prof.p} nonnegative values with a positive sum")
    v = v / v.sum()
    setattr(args, name, v.tolist())
    return v


def _table(header, columns, footer=None) -> str:
    """The one CSV writer, column by column: a column of str is written as it
    is, any other as the repr of each value read as a float, so a payload keeps
    every bit of its values; footer, a last row, is written cell by cell the
    same way."""
    cells = [c.tolist() if c.dtype.kind == "U" else map(repr, c.astype(float).tolist())
             for c in map(np.asarray, columns)]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    if footer is not None:
        lines.append(",".join(c if isinstance(c, str) else repr(float(c)) for c in footer))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands: each takes (profile, args) and returns (exit code, body, table)
# ---------------------------------------------------------------------------


def cmd_edge(prof, args):
    l, r = support_edge(prof)
    body = {
        "l_edge": l,
        "r_edge": r,
        "tolerances": {"duality_gap": EDGE_GAP_TOL * (1.0 + r)},
    }
    return EXIT_OK, body, None


def cmd_density(prof, args):
    sm = spectral_measure(prof, args.xmin, args.xmax, args.points)
    body = {
        "x": sm.x_grid.tolist(),
        "density": sm.density.tolist(),
        "block_densities": sm.block_densities.tolist(),
        "l_edge": sm.l_edge,
        "r_edge": sm.r_edge,
        "total_mass": sm.total_mass,
        "total_mass_error": sm.total_mass_error,
        "flagged": sm.flags.astype(int).tolist(),
    }
    header = ["x", "density", *(f"density_block_{k+1}" for k in range(prof.p))]
    return EXIT_OK, body, _table(header, [sm.x_grid, sm.density, *sm.block_densities],
                                 footer=["# total_mass", sm.total_mass])


def cmd_rate(prof, args):
    rows = rate_sweep(prof, _finite(args.x, "x").tolist())  # else -inf reads as below the edge
    body = {
        "reports": [{**vars(r), "psi_star": r.psi_star.tolist()} for r in rows],
        "notes": ["inf marks x below the support edge" if not np.isfinite(r.I) else ""
                  for r in rows],
    }
    header = ["x", "I", "theta_star", *(f"psi_star_{k+1}" for k in range(prof.p)), "spread"]
    columns = zip(*([r.x, r.I, r.theta_star, *r.psi_star, r.spread] for r in rows))
    return EXIT_OK, body, _table(header, columns)


# -- validation suites -------------------------------------------------------


def _check(name, value, bound, ok, note=""):
    return {"name": name, "value": value, "bound": bound, "pass": bool(ok), "note": note}


def _suite_dyson(prof, seed, threads):
    from .dyson import solve_dyson, solve_dyson_finite

    checks = []
    s = solve_dyson(prof, 2j)
    checks.append(_check("residual_z_2i", s.residual, 1e-10 * (1 + 2), s.residual <= 1e-10 * 3))
    rng = np.random.default_rng(seed)
    herg = True
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2.0))
        herg &= bool(np.all(np.imag(solve_dyson(prof, z).m) < 0))
    checks.append(_check("herglotz_im_m_negative", float(herg), 1.0, herg))
    l, r = support_edge(prof)
    checks.append(_check("edges_symmetric", abs(l + r), 1e-9, abs(l + r) <= 1e-9))
    # a probability measure on [-r, r] has 1/(2r + d) <= G(r + d) <= 1/d
    g_edge = stieltjes_total(prof, r + 1e-3)
    checks.append(_check("G_above_edge_finite", g_edge, 1e3, 1 / (2 * r + 1e-3) <= g_edge <= 1e3))
    gs = dyson._solve_real(prof, np.linspace(r + 1e-3, r + 3.0, 100)) @ prof.weights
    mono = bool(np.all(np.diff(gs) < 0))
    checks.append(_check("G_strictly_decreasing", float(mono), 1.0, mono))
    # the N-row system is the block system at the row fractions n_k/N, blocks with no row dropped
    gaps = []
    for N in (50, 100, 200):
        b = prof.row_blocks(N)
        mN = solve_dyson_finite(prof.sigma[np.ix_(b, b)], 2j)
        blocks, row, n = np.unique(b, return_inverse=True, return_counts=True)
        mk = solve_dyson(VarianceProfile(n / N, prof.sigma[np.ix_(blocks, blocks)]), 2j).m
        gaps.append(float(np.max(np.abs(mN - mk[row]))))
    checks.append(_check("finite_N_consistency", max(gaps), 1e-10, max(gaps) <= 1e-10, note=str(gaps)))
    return checks


def _suite_identities(prof, seed, threads):
    checks = []
    _, r = support_edge(prof)
    rng = np.random.default_rng(seed)
    # no draw depends on a solve: draw first, then evaluate each form over all 200 draws as one
    # stack of rows (`ratefn._F_rows`) on one context, whose xs are solved in one batch
    xs, psis = r + rng.uniform(0.05, 1.0, 200), rng.dirichlet(np.ones(prof.p), 200)
    us, th_hats = rng.uniform(0.0, 0.5, 200), rng.uniform(0.0, 2.0, 200)
    ctx = ratefn._ctx(prof, xs)
    G = ctx[2]
    worst_plateau = float(np.abs(ratefn._F_rows(prof, us * G / 2, ctx, psis)).max())
    F_hat = ratefn._F_hat_rows(prof, th_hats, ctx, psis)
    worst_eq = float(np.abs(F_hat - ratefn._F_rows(prof, th_hats + G / 2, ctx, psis)).max())
    checks.append(_check("plateau_F_zero", worst_plateau, 1e-8, worst_plateau < 1e-8))
    checks.append(_check("form_equality", worst_eq, 1e-9, worst_eq < 1e-9))
    x = r + 0.4
    G = stieltjes_total(prof, x)
    seam = abs(eval_J(prof, x, G / 2 * (1 + 1e-13)) - eval_J(prof, x, G / 2 * (1 - 1e-13)))
    checks.append(_check("J_seam_continuity", seam, 1e-9, seam < 1e-9))
    a = prof.mean_sigma
    ok4, ok2 = True, True
    xs = [r + dx for dx in (0.2, 0.6, 1.0)]
    for x, rep in zip(xs, rate_sweep(prof, xs)):
        ok4 &= rep.I <= x**2 / (4 * a) + 1e-6
        ok2 &= rep.I <= x**2 / (2 * a) + 1e-6
    checks.append(_check("upper_bound_quarter_a", float(ok4), 1.0, ok4))
    checks.append(_check("upper_bound_half_a", float(ok2), 1.0, ok2, note="looser stated bound"))
    return checks


def _suite_blocks(prof, seed, threads):
    # H is block-diagonal over the irreducible parts, so with P_c the part of mass alpha_c at its
    # own scale (sigma unscaled, not the mass-scaled part `support_edge` solves) the identities
    # r = max_c sqrt(alpha_c) r(P_c) and I(x) = min_c alpha_c I_c(x / sqrt(alpha_c)) are exact
    parts = dyson._irreducible_parts(prof)
    if len(parts) == 1 and parts[0][1].p == prof.p:
        raise UsageError("blocks suite needs a reducible profile")
    _, r = support_edge(prof)
    xs = r + np.array([0.15, 0.45, 0.9])
    rates = np.array([rep.I for rep in rate_sweep(prof, xs)])
    r_pred, ref = -np.inf, np.inf
    for mass, part in parts:
        own = VarianceProfile(part.weights, part.sigma / mass)
        r_pred = max(r_pred, np.sqrt(mass) * support_edge(own)[1])
        ref = np.minimum(ref, [mass * rep.I for rep in rate_sweep(own, xs / np.sqrt(mass))])
    checks = []
    gap, bound = abs(r - r_pred), 2 * EDGE_GAP_TOL * (1.0 + r)
    checks.append(_check("edge_scaling", gap, bound, gap <= bound))
    gaps, bounds = np.abs(rates - ref), 1e-9 * (1.0 + rates)
    k = int(np.argmax(gaps / bounds))  # the x nearest its bound, or the first NaN
    checks.append(_check("block_rate_identity", gaps[k], bounds[k], gaps[k] <= bounds[k]))
    return checks


def _suite_wishart(prof, seed, threads):
    checks = []
    _, r = support_edge(prof)
    worst = 0.0
    xs = [r + dx for dx in (0.15, 0.35, 0.6)]
    for x, rep in zip(xs, rate_sweep(prof, xs)):
        worst = max(worst, abs(rep.I - rate_function_concave(prof, x)))
    checks.append(_check("minimax_exchange", worst, 2e-3, worst < 2e-3))
    return checks


def _suite_mc_light(prof, seed, threads):
    checks = []
    # entry-law calibration on small matrices, through the tail's own draw
    N = 6
    var, sd, diag = mc._packed_layout(prof, N)
    draws = [mc._packed_draw(sd, "gaussian", rng, rows)
             for _, rows, rng in mc._chunks([seed, N], 79 * mc.MC_CHUNK, mc.MC_CHUNK)]
    emp = np.concatenate(draws).var(axis=0) * N
    # the entry of largest variance off the diagonal, and on it
    for name, rows in (("variance_offdiag", ~diag), ("variance_diag", diag)):
        k = np.flatnonzero(rows)[np.argmax(var[rows])]
        v, target = float(emp[k]), float(var[k])
        ok = abs(v / target - 1) < 0.05 if target > 0 else v == 0.0
        checks.append(_check(name, v, target, ok))
    # sharp sub-Gaussian certificate
    t = np.linspace(-5, 5, 201)
    ok_ssg = all(np.all(mc.entry_log_mgf(d, t) <= t * t / 2 + 1e-12) for d in mc.ENTRY_KINDS)
    checks.append(_check("sharp_subgaussian", float(ok_ssg), 1.0, ok_ssg))
    # determinism canary: one sampled matrix hashed by content
    H = mc.sample_matrix(prof, 16, "gaussian", seed=seed)
    canary = float(np.abs(H).sum())
    checks.append(_check("sampler_canary", canary, canary, True, note="value is seed-determined"))
    # bulk event: tail frequency near 1 below the edge
    pts = mc.tail_estimate(prof, 0.0, [24], 400, "gaussian", seed=seed, threads=threads)
    checks.append(_check("bulk_event_frequency", pts[0].p_hat, 0.95, pts[0].p_hat > 0.95))
    # dirichlet moments
    rep = mc.profile_dirichlet_check(prof, 48, 20000, seed=seed)
    bound = float(3 * rep["se_mean"].max() + 1e-12)
    checks.append(_check("dirichlet_mean", rep["max_mean_dev"], bound, rep["max_mean_dev"] < bound))
    return checks


def _suite_mc_heavy(prof, seed, threads):
    checks = []
    _, r = support_edge(prof)
    # edge concentration
    lam, _ = mc._top_pairs(prof, 400, "gaussian", [seed, 77], 40)
    frac = float(np.mean(np.abs(lam - r) > 0.15))
    checks.append(_check("edge_concentration", frac, 0.05, frac < 0.05))
    # tilted outlier at a point above the edge
    x = r + max(0.2, 0.1 * r)
    psi = np.full(prof.p, 1.0 / prof.p)
    if float(psi @ prof.sigma @ psi) > 0:
        rep = mc.tilted_outlier_check(prof, x, psi, N=200, samples=25, seed=seed)
        gap = abs(rep["mean_lambda1"] - x)
        checks.append(_check("tilted_outlier", gap, 0.15, gap < 0.15))
    # tail trend toward the rate function
    x_tail = r + 0.2
    ref = rate_function(prof, x_tail).I
    pts = mc.tail_estimate(prof, x_tail, [20, 40], 100000, "gaussian", seed=seed, threads=threads)
    trend = pts[1].rate < pts[0].rate and pts[1].rate > ref
    checks.append(
        _check("tail_trend", pts[1].rate, ref, trend, note=f"rates {pts[0].rate:.4f}->{pts[1].rate:.4f}")
    )
    return checks


_SUITES = {
    "dyson": _suite_dyson,
    "identities": _suite_identities,
    "blocks": _suite_blocks,
    "wishart": _suite_wishart,
    "mc-light": _suite_mc_light,
    "mc-heavy": _suite_mc_heavy,
}


def cmd_validate(prof, args):
    if args.suite not in _SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; pick one of {sorted(_SUITES)}")
    checks = _SUITES[args.suite](prof, args.seed, args.threads)
    passed = all(c["pass"] for c in checks)
    body = {"suite": args.suite, "checks": checks, "passed": passed}
    return EXIT_OK if passed else EXIT_NUMERIC, body, None


# -- mc subcommands ----------------------------------------------------------


def cmd_mc_tail(prof, args):
    _, r = support_edge(prof)
    # the reference first: one that fails then throws no sampling run away
    ref = rate_function(prof, args.x).I if args.x > r else 0.0
    pts = mc.tail_estimate(prof, args.x, args.N, args.samples, args.dist, args.seed, args.threads)
    body = {"reference_rate": ref, "points": [vars(p) for p in pts]}
    return EXIT_INCONCLUSIVE if any(p.one_sided for p in pts) else EXIT_OK, body, None


def cmd_mc_spherical(prof, args):
    ref = eval_J(prof, args.x, args.theta)  # rejects a bad x or theta before any sampling
    M = mc.quantile_spectrum_matrix(prof, args.N, args.x)
    est = mc.spherical_integral_mc(M, args.theta, args.samples, args.seed)
    body = {"estimate": est.value, "stderr": est.stderr, "ess": est.extra["ess"],
            "reference_J": ref}
    return EXIT_OK, body, None


def cmd_mc_annealed(prof, args):
    phi = _mass_option(prof, args, "phi")
    ref = ratefn.eval_K(prof, args.theta, phi)  # rejects a bad theta before sampling
    try:
        est = mc.annealed_integral_mc(prof, args.theta, phi, args.delta, args.N, args.samples, args.seed)
    except InconclusiveError as e:
        return EXIT_INCONCLUSIVE, {"error": str(e)}, None
    body = {"estimate": est.value, "stderr": est.stderr, "window_hits": est.hits,
            "reference_K": ref}
    return EXIT_OK, body, None


def cmd_mc_tilt(prof, args):
    psi = _mass_option(prof, args, "psi")
    rep = mc.tilted_outlier_check(prof, args.x, psi, args.N, args.samples, args.seed)
    body = {k: rep[k] for k in
            ("theta_star", "target_x", "mean_lambda1", "std_lambda1", "mean_profile_gap")}
    table = None
    if args.format == "csv":  # the only command whose table is not its default payload
        lam = rep["lambda1"]
        table = _table(["seed_index", "lambda1"], [[str(i) for i in range(len(lam))], lam])
    return EXIT_OK, body, table


def cmd_mc_batch(prof, args):
    batch = mc.collect_batch(prof, args.N, args.samples, args.dist, args.seed)
    body = {
        "lambda1_mean": float(batch.lambda1.mean()),
        "lambda1_std": float(batch.lambda1.std(ddof=1)) if args.samples > 1 else 0.0,
        "rho_mean": batch.rho_v1.mean(axis=0).tolist(),
    }
    header = ["seed_index", "lambda1", *(f"rho_{k+1}" for k in range(prof.p))]
    index = [str(i) for i in range(len(batch.lambda1))]
    return EXIT_OK, body, _table(header, [index, batch.lambda1, *batch.rho_v1.T])


def cmd_mc_dirichlet(prof, args):
    rep = mc.profile_dirichlet_check(prof, args.N, args.samples, args.seed)
    body = {
        "mean_emp": rep["mean_emp"].tolist(),
        "mean_exact": rep["mean_exact"].tolist(),
        "max_mean_dev": rep["max_mean_dev"],
        "max_cov_dev": rep["max_cov_dev"],
    }
    return EXIT_OK, body, None


# ---------------------------------------------------------------------------
# the one payload path
# ---------------------------------------------------------------------------


def _run(args) -> int:
    """Load the profile, run the command, and write its payload with the manifest:
    the CSV table when the command has one and JSON was not asked for, else JSON.
    A bad --seed or --threads, or an --out in no directory, exits before the command runs."""
    _count(args.seed, "seed", 0)
    _count(args.threads, "threads")
    if args.out and not Path(args.out).parent.is_dir():
        raise UsageError(f"cannot write --out {args.out}: no directory {Path(args.out).parent}")
    prof = _load(args.profile)
    code, body, table = args.fn(prof, args)
    command = args.command + (f" {args.mc_command}" if args.command == "mc" else "")
    manifest = {
        "command": command,
        "profile": prof.label,
        "options": {k: v for k, v in sorted(vars(args).items()) if k not in _NOT_OPTIONS},
        "seed": args.seed,
        "version": __version__,
    }
    if table is not None and args.format != "json":
        text = "# " + json.dumps(manifest, sort_keys=True) + "\n" + table
    else:
        text = json.dumps({"manifest": manifest, **body}, sort_keys=True, indent=1) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write --out {args.out}: {e}") from None
    else:
        sys.stdout.write(text)
    return code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@cache  # built once per process: parsing never changes a default
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wigner-ldp", description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", type=str, default=None)
    ap.add_argument("--format", choices=("csv", "json"), default=None,
                    help="table commands default to csv, report commands to json")
    sub = ap.add_subparsers(dest="command", required=True)
    prof = argparse.ArgumentParser(add_help=False)  # --profile, shared by every command
    prof.add_argument("--profile", required=True)

    p = sub.add_parser("edge", parents=[prof], help="support edges of the limiting measure")
    p.set_defaults(fn=cmd_edge)

    p = sub.add_parser("density", parents=[prof], help="limiting spectral density on a grid")
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("rate", parents=[prof], help="rate function at one or more x")
    p.add_argument("--x", type=_comma_list, required=True)
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("validate", parents=[prof], help="run a named validation suite")
    p.add_argument("--suite", required=True)
    p.set_defaults(fn=cmd_validate)

    pmc = sub.add_parser("mc", help="Monte Carlo estimators")
    mcsub = pmc.add_subparsers(dest="mc_command", required=True)

    p = mcsub.add_parser("tail", parents=[prof])
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--N", type=partial(_comma_list, item=int), required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--dist", choices=mc.ENTRY_KINDS, default="gaussian")
    p.set_defaults(fn=cmd_mc_tail)

    p = mcsub.add_parser("spherical", parents=[prof])
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--N", type=int, default=150)
    p.add_argument("--samples", type=int, default=100000)
    p.set_defaults(fn=cmd_mc_spherical)

    p = mcsub.add_parser("annealed", parents=[prof])
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--phi", type=_comma_list, default=None)
    p.set_defaults(fn=cmd_mc_annealed)

    p = mcsub.add_parser("tilt", parents=[prof])
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--psi", type=_comma_list, default=None)
    p.set_defaults(fn=cmd_mc_tilt)

    p = mcsub.add_parser("dirichlet", parents=[prof])
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--samples", type=int, default=100000)
    p.set_defaults(fn=cmd_mc_dirichlet)

    p = mcsub.add_parser("batch", parents=[prof])
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--dist", choices=mc.ENTRY_KINDS, default="gaussian")
    p.set_defaults(fn=cmd_mc_batch)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        code = _run(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, ValueError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"# wall_time_s={time.time() - t0:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
