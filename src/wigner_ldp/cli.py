"""Command-line front end.

Exit codes: 0 success, 2 usage or config error, 3 numeric failure (including
failed validation checks), 4 statistically inconclusive Monte Carlo.

Every file payload embeds a manifest (command, profile label, options, seed,
version).  Wall time goes to stderr only, and the thread count is excluded
from the manifest, so equal-seed reruns produce byte-identical payloads
regardless of thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

import numpy as np

from . import __version__, mc, ratefn
from .dyson import ConvergenceError, spectral_measure, stieltjes_total, support_edge
from .mc import InconclusiveError
from .profiles import ProfileConfigError, VarianceProfile, load_profile_file
from .ratefn import eval_F, eval_F_hat, eval_J, rate_function, rate_function_concave

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_INCONCLUSIVE = 0, 2, 3, 4


def _manifest(command: str, profile_label: str, options: dict, seed) -> dict:
    opts = {k: v for k, v in sorted(options.items()) if k not in ("threads", "out", "format")}
    return {
        "command": command,
        "profile": profile_label,
        "options": opts,
        "seed": seed,
        "version": __version__,
    }


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_payload(manifest: dict, body: dict) -> str:
    return json.dumps({"manifest": manifest, **body}, sort_keys=True, indent=1) + "\n"


def _finite_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        v = np.nan
    if not np.isfinite(v):
        raise argparse.ArgumentTypeError(f"not a finite float: {text!r}")
    return v


def _floats(text: str) -> list[float]:
    return [_finite_float(tok) for tok in text.split(",") if tok.strip() != ""]


def _int_at_least(lo: int, text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < lo:
        raise argparse.ArgumentTypeError(f"must be an integer >= {lo}: {text!r}")
    return n


_positive_int = partial(_int_at_least, 1)


def _positive_ints(text: str) -> list[int]:
    vals = [_positive_int(tok) for tok in text.split(",") if tok.strip() != ""]
    if not vals:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    return vals


def _load(path) -> VarianceProfile:
    prof = load_profile_file(path)
    if not isinstance(prof, VarianceProfile):
        raise ProfileConfigError("this command needs a block profile; give the grid a block count p")
    return prof


def _above_edge(prof: VarianceProfile, x: float) -> None:
    if not x > (r := support_edge(prof)[1]):
        raise ProfileConfigError(f"--x {x!r} must exceed the support edge r = {r!r}")


def _mass_option(prof: VarianceProfile, values, name: str) -> np.ndarray:
    """--phi/--psi: p nonnegative masses with a positive sum; the weights when absent."""
    v = prof.weights if values is None else np.asarray(values, dtype=float)
    if v.shape != (prof.p,) or np.any(v < 0) or not v.sum() > 0:
        raise ProfileConfigError(f"--{name} needs {prof.p} nonnegative values with a positive sum")
    return v


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_edge(args) -> int:
    prof = _load(args.profile)
    l, r = support_edge(prof)
    man = _manifest("edge", prof.label, {"profile_path": str(args.profile)}, args.seed)
    body = {
        "l_edge": l,
        "r_edge": r,
        "tolerances": {"bisection": 1e-6 * (1.0 + prof.max_sigma), "density_floor": 1e-6},
    }
    _emit(_json_payload(man, body), args.out)
    return EXIT_OK


def cmd_density(args) -> int:
    prof = _load(args.profile)
    if args.points < 2:
        raise ProfileConfigError("points must be >= 2")
    if not args.xmin < args.xmax:
        raise ProfileConfigError("xmin must be below xmax")
    eta = np.asarray(args.eta, dtype=float)
    if eta.size == 0 or np.any(eta <= 0) or np.any(np.diff(eta) >= 0):
        raise ProfileConfigError("eta must be positive and strictly decreasing")
    sm = spectral_measure(prof, args.xmin, args.xmax, args.points, tuple(args.eta))
    man = _manifest(
        "density", prof.label,
        {"xmin": args.xmin, "xmax": args.xmax, "points": args.points, "eta": list(args.eta)},
        args.seed,
    )
    if args.format == "json":
        body = {
            "x": sm.x_grid.tolist(),
            "density": sm.density.tolist(),
            "block_densities": sm.block_densities.tolist(),
            "l_edge": sm.l_edge,
            "r_edge": sm.r_edge,
            "total_mass_error": sm.total_mass_error,
            "flagged": sm.flags.astype(int).tolist(),
        }
        _emit(_json_payload(man, body), args.out)
    else:
        text = "# " + json.dumps(man, sort_keys=True) + "\n"
        text += sm.to_csv()
        text += f"# total_mass,{1.0 - sm.total_mass_error!r}\n"
        _emit(text, args.out)
    return EXIT_OK


def cmd_rate(args) -> int:
    prof = _load(args.profile)
    man = _manifest(
        "rate", prof.label,
        {"x": list(args.x), "starts": args.starts, "tol": args.tol}, args.seed,
    )
    rows = [rate_function(prof, x, starts=args.starts, tol=args.tol, seed=args.seed) for x in args.x]
    if args.format == "json":
        body = {
            "reports": [json.loads(r.to_json()) for r in rows],
            "notes": ["inf marks x below the support edge" if not np.isfinite(r.I) else ""
                      for r in rows],
        }
        _emit(_json_payload(man, body), args.out)
    else:
        p = prof.p
        head = "x,I,theta_star," + ",".join(f"psi_star_{k+1}" for k in range(p)) + ",spread"
        lines = ["# " + json.dumps(man, sort_keys=True), head]
        for r in rows:
            cells = [repr(float(r.x)), "inf" if not np.isfinite(r.I) else repr(float(r.I)),
                     repr(float(r.theta_star))]
            cells += [repr(float(v)) for v in r.psi_star.values]
            cells.append(repr(float(r.spread)))
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


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
    g_edge = stieltjes_total(prof, r + 1e-3)
    checks.append(_check("G_above_edge_finite", g_edge, np.inf, np.isfinite(g_edge) and g_edge > 0))
    xs = np.linspace(r + 1e-3, r + 3.0, 100)
    gs = [stieltjes_total(prof, float(x)) for x in xs]
    mono = bool(np.all(np.diff(gs) < 0))
    checks.append(_check("G_strictly_decreasing", float(mono), 1.0, mono))
    sups = []
    mref = solve_dyson(prof, 2j).m
    for N in (50, 100, 200):
        b = prof.row_blocks(N)
        mN = solve_dyson_finite(prof.sigma[np.ix_(b, b)], 2j)
        sups.append(float(np.max(np.abs(mN - mref[b]))))
    shrink = bool(sups[1] <= sups[0] and sups[2] <= sups[1])
    checks.append(_check("finite_N_consistency", sups[-1], sups[0], shrink, note=str(sups)))
    return checks


def _suite_identities(prof, seed, threads):
    checks = []
    _, r = support_edge(prof)
    rng = np.random.default_rng(seed)
    worst_plateau = 0.0
    worst_eq = 0.0
    for _ in range(200):
        x = r + rng.uniform(0.05, 1.0)
        psi = rng.dirichlet(np.ones(prof.p))
        G = stieltjes_total(prof, x)
        th = rng.uniform(0.0, 0.5) * G / 2
        worst_plateau = max(worst_plateau, abs(eval_F(prof, th, x, psi)))
        th_hat = rng.uniform(0.0, 2.0)
        gap = abs(eval_F_hat(prof, th_hat, x, psi) - eval_F(prof, th_hat + G / 2, x, psi))
        worst_eq = max(worst_eq, gap)
    checks.append(_check("plateau_F_zero", worst_plateau, 1e-8, worst_plateau < 1e-8))
    checks.append(_check("form_equality", worst_eq, 1e-9, worst_eq < 1e-9))
    x = r + 0.4
    G = stieltjes_total(prof, x)
    seam = abs(eval_J(prof, x, G / 2 * (1 + 1e-13)) - eval_J(prof, x, G / 2 * (1 - 1e-13)))
    checks.append(_check("J_seam_continuity", seam, 1e-9, seam < 1e-9))
    a = prof.mean_sigma
    ok4, ok2 = True, True
    for dx in (0.2, 0.6, 1.0):
        I = rate_function(prof, r + dx, seed=seed).I
        ok4 &= I <= (r + dx) ** 2 / (4 * a) + 1e-6
        ok2 &= I <= (r + dx) ** 2 / (2 * a) + 1e-6
    checks.append(_check("upper_bound_quarter_a", float(ok4), 1.0, ok4))
    checks.append(_check("upper_bound_half_a", float(ok2), 1.0, ok2, note="looser stated bound"))
    return checks


def _block_split(prof: VarianceProfile):
    """Split a block-diagonal profile into (alpha, top-left, bottom-right)."""
    p = prof.p
    for cut in range(1, p):
        if np.all(prof.sigma[:cut, cut:] == 0.0):
            alpha = float(prof.weights[:cut].sum())
            p1 = VarianceProfile(prof.weights[:cut] / alpha, prof.sigma[:cut, :cut])
            p2 = VarianceProfile(prof.weights[cut:] / (1 - alpha), prof.sigma[cut:, cut:])
            return alpha, p1, p2
    return None


def _suite_blocks(prof, seed, threads):
    split = _block_split(prof)
    if split is None:
        raise ProfileConfigError("blocks suite needs a block-diagonal profile")
    alpha, p1, p2 = split
    _, r = support_edge(prof)
    _, r1 = support_edge(p1)
    _, r2 = support_edge(p2)
    checks = []
    r_pred = max(np.sqrt(alpha) * r1, np.sqrt(1 - alpha) * r2)
    checks.append(_check("edge_scaling", abs(r - r_pred), 1e-3, abs(r - r_pred) < 1e-3))
    worst = 0.0
    for dx in (0.15, 0.45, 0.9):
        x = r + dx
        direct = rate_function(prof, x, seed=seed).I
        ref = min(
            alpha * rate_function(p1, x / np.sqrt(alpha), seed=seed).I,
            (1 - alpha) * rate_function(p2, x / np.sqrt(1 - alpha), seed=seed).I,
        )
        worst = max(worst, abs(direct - ref))
    checks.append(_check("block_rate_identity", worst, 2e-3, worst < 2e-3))
    return checks


def _suite_wishart(prof, seed, threads):
    checks = []
    _, r = support_edge(prof)
    worst = 0.0
    for dx in (0.15, 0.35, 0.6):
        x = r + dx
        gap = abs(rate_function(prof, x, seed=seed).I - rate_function_concave(prof, x))
        worst = max(worst, gap)
    checks.append(_check("minimax_exchange", worst, 2e-3, worst < 2e-3))
    return checks


def _suite_mc_light(prof, seed, threads):
    checks = []
    # entry-law calibration on small matrices
    from .mc import _sample_chunk, _scale_matrices

    N = 6
    _, off, diag = _scale_matrices(prof, N)
    Hs = np.concatenate(
        [_sample_chunk(prof, N, "gaussian", seed, ci, mc.MC_CHUNK, off, diag) for ci in range(79)]
    )
    b = prof.row_blocks(N)
    S = prof.sigma[np.ix_(b, b)]
    iu = np.triu_indices(N, 1)
    pick = int(np.argmax(S[iu]))
    i, j = iu[0][pick], iu[1][pick]
    v_off = float(Hs[:, i, j].var() * N)
    target_off = S[i, j]
    ok = abs(v_off / target_off - 1) < 0.05 if target_off > 0 else v_off == 0.0
    checks.append(_check("variance_offdiag", v_off, float(target_off), ok))
    kk = int(np.argmax(np.diag(prof.sigma[np.ix_(b, b)])))
    v_diag = float(Hs[:, kk, kk].var() * N)
    target_diag = 2.0 * prof.sigma[b[kk], b[kk]]
    checks.append(_check("variance_diag", v_diag, float(target_diag), abs(v_diag / target_diag - 1) < 0.05))
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
    checks.append(_check("bulk_event_frequency", pts[0].p_hat, 1.0, pts[0].p_hat > 0.95))
    # dirichlet moments
    rep = mc.profile_dirichlet_check(prof, 48, 20000, seed=seed)
    bound = float(3 * rep["se_mean"].max() + 1e-12)
    checks.append(_check("dirichlet_mean", rep["max_mean_dev"], bound, rep["max_mean_dev"] < bound))
    return checks


def _suite_mc_heavy(prof, seed, threads):
    checks = []
    _, r = support_edge(prof)
    # edge concentration
    lam = []
    for i in range(40):
        H = mc.sample_matrix(prof, 400, "gaussian", seed=[seed, 77, i])
        lam.append(mc.eig_top(H)[0])
    frac = float(np.mean(np.abs(np.asarray(lam) - r) > 0.15))
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
    ref = rate_function(prof, x_tail, seed=seed).I
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


def cmd_validate(args) -> int:
    prof = _load(args.profile)
    if args.suite not in _SUITES:
        raise ProfileConfigError(f"unknown suite {args.suite!r}; pick one of {sorted(_SUITES)}")
    checks = _SUITES[args.suite](prof, args.seed, args.threads)
    man = _manifest("validate", prof.label, {"suite": args.suite}, args.seed)
    passed = all(c["pass"] for c in checks)
    _emit(_json_payload(man, {"suite": args.suite, "checks": checks, "passed": passed}), args.out)
    return EXIT_OK if passed else EXIT_NUMERIC


# -- mc subcommands ----------------------------------------------------------


def cmd_mc_tail(args) -> int:
    prof = _load(args.profile)
    pts = mc.tail_estimate(prof, args.x, args.N, args.samples, args.dist, args.seed, args.threads)
    _, r = support_edge(prof)
    ref = rate_function(prof, args.x, seed=args.seed).I if args.x > r else 0.0
    man = _manifest(
        "mc tail", prof.label,
        {"x": args.x, "N": args.N, "samples": args.samples, "dist": args.dist}, args.seed,
    )
    body = {
        "reference_rate": ref,
        "points": [vars(p) for p in pts],
    }
    _emit(_json_payload(man, body), args.out)
    return EXIT_INCONCLUSIVE if any(p.one_sided for p in pts) else EXIT_OK


def cmd_mc_spherical(args) -> int:
    prof = _load(args.profile)
    _above_edge(prof, args.x)
    if args.samples < mc.MIN_SPHERE_SAMPLES:
        raise ProfileConfigError(f"samples must be >= {mc.MIN_SPHERE_SAMPLES}")
    M = mc.quantile_spectrum_matrix(prof, args.N, args.x)
    est = mc.spherical_integral_mc(M, args.theta, args.samples, args.seed)
    ref = eval_J(prof, args.x, args.theta)
    man = _manifest(
        "mc spherical", prof.label,
        {"x": args.x, "theta": args.theta, "N": args.N, "samples": args.samples}, args.seed,
    )
    _emit(_json_payload(man, {"estimate": est.value, "stderr": est.stderr,
                              "ess": est.extra["ess"], "reference_J": ref}), args.out)
    return EXIT_OK


def cmd_mc_annealed(args) -> int:
    prof = _load(args.profile)
    phi = _mass_option(prof, args.phi, "phi")
    if not args.delta > 0:
        raise ProfileConfigError("delta must be positive")
    try:
        est = mc.annealed_integral_mc(prof, args.theta, phi, args.delta, args.N, args.samples, args.seed)
    except InconclusiveError as e:
        man = _manifest("mc annealed", prof.label, {"theta": args.theta, "delta": args.delta}, args.seed)
        _emit(_json_payload(man, {"error": str(e)}), args.out)
        return EXIT_INCONCLUSIVE
    ref = ratefn.eval_K(prof, args.theta, phi / phi.sum())
    man = _manifest(
        "mc annealed", prof.label,
        {"theta": args.theta, "phi": phi.tolist(), "delta": args.delta, "N": args.N,
         "samples": args.samples}, args.seed,
    )
    _emit(_json_payload(man, {"estimate": est.value, "stderr": est.stderr,
                              "window_hits": est.hits, "reference_K": ref}), args.out)
    return EXIT_OK


def cmd_mc_tilt(args) -> int:
    prof = _load(args.profile)
    _above_edge(prof, args.x)
    psi = _mass_option(prof, args.psi, "psi")
    rep = mc.tilted_outlier_check(prof, args.x, psi / psi.sum(), args.N, args.samples, args.seed)
    man = _manifest(
        "mc tilt", prof.label,
        {"x": args.x, "psi": psi.tolist(), "N": args.N, "samples": args.samples}, args.seed,
    )
    if args.format == "csv":
        text = "# " + json.dumps(man, sort_keys=True) + "\n"
        text += "seed_index,lambda1\n"
        for i, lam in enumerate(rep["lambda1"]):
            text += f"{i},{float(lam)!r}\n"
        _emit(text, args.out)
        return EXIT_OK
    body = {
        "theta_star": rep["theta_star"],
        "target_x": rep["target_x"],
        "mean_lambda1": rep["mean_lambda1"],
        "std_lambda1": rep["std_lambda1"],
        "mean_profile_gap": rep["mean_profile_gap"],
    }
    _emit(_json_payload(man, body), args.out)
    return EXIT_OK


def cmd_mc_batch(args) -> int:
    prof = _load(args.profile)
    batch = mc.collect_batch(prof, args.N, args.samples, args.dist, args.seed)
    man = _manifest(
        "mc batch", prof.label,
        {"N": args.N, "samples": args.samples, "dist": args.dist}, args.seed,
    )
    if args.format == "json":
        body = {
            "lambda1_mean": float(batch.lambda1.mean()),
            "lambda1_std": float(batch.lambda1.std(ddof=1)) if args.samples > 1 else 0.0,
            "rho_mean": batch.rho_v1.mean(axis=0).tolist(),
        }
        _emit(_json_payload(man, body), args.out)
    else:
        text = "# " + json.dumps(man, sort_keys=True) + "\n" + batch.to_csv()
        _emit(text, args.out)
    return EXIT_OK


def cmd_mc_dirichlet(args) -> int:
    prof = _load(args.profile)
    rep = mc.profile_dirichlet_check(prof, args.N, args.samples, args.seed)
    man = _manifest("mc dirichlet", prof.label, {"N": args.N, "samples": args.samples}, args.seed)
    body = {
        "mean_emp": rep["mean_emp"].tolist(),
        "mean_exact": rep["mean_exact"].tolist(),
        "max_mean_dev": rep["max_mean_dev"],
        "max_cov_dev": rep["max_cov_dev"],
    }
    _emit(_json_payload(man, body), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


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
    p.add_argument("--xmin", type=_finite_float, required=True)
    p.add_argument("--xmax", type=_finite_float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--eta", type=_floats, default=[1e-2, 5e-3, 2.5e-3])
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("rate", parents=[prof], help="rate function at one or more x")
    p.add_argument("--x", type=_floats, required=True)
    p.add_argument("--starts", type=partial(_int_at_least, 0), default=8)
    p.add_argument("--tol", type=_finite_float, default=1e-9)
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("validate", parents=[prof], help="run a named validation suite")
    p.add_argument("--suite", required=True)
    p.set_defaults(fn=cmd_validate)

    pmc = sub.add_parser("mc", help="Monte Carlo estimators")
    mcsub = pmc.add_subparsers(dest="mc_command", required=True)

    p = mcsub.add_parser("tail", parents=[prof])
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--N", type=_positive_ints, required=True)
    p.add_argument("--samples", type=_positive_int, default=100000)
    p.add_argument("--dist", choices=mc.ENTRY_KINDS, default="gaussian")
    p.set_defaults(fn=cmd_mc_tail)

    p = mcsub.add_parser("spherical", parents=[prof])
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--theta", type=_finite_float, required=True)
    p.add_argument("--N", type=_positive_int, default=150)
    p.add_argument("--samples", type=_positive_int, default=100000)
    p.set_defaults(fn=cmd_mc_spherical)

    p = mcsub.add_parser("annealed", parents=[prof])
    p.add_argument("--theta", type=_finite_float, required=True)
    p.add_argument("--N", type=_positive_int, default=200)
    p.add_argument("--samples", type=_positive_int, default=100000)
    p.add_argument("--delta", type=_finite_float, default=0.1)
    p.add_argument("--phi", type=_floats, default=None)
    p.set_defaults(fn=cmd_mc_annealed)

    p = mcsub.add_parser("tilt", parents=[prof])
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--N", type=_positive_int, default=200)
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--psi", type=_floats, default=None)
    p.set_defaults(fn=cmd_mc_tilt)

    p = mcsub.add_parser("dirichlet", parents=[prof])
    p.add_argument("--N", type=_positive_int, default=100)
    p.add_argument("--samples", type=_positive_int, default=100000)
    p.set_defaults(fn=cmd_mc_dirichlet)

    p = mcsub.add_parser("batch", parents=[prof])
    p.add_argument("--N", type=_positive_int, default=200)
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--dist", choices=mc.ENTRY_KINDS, default="gaussian")
    p.set_defaults(fn=cmd_mc_batch)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        code = args.fn(args)
    except ProfileConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InconclusiveError as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ConvergenceError, ValueError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"# wall_time_s={time.time() - t0:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
