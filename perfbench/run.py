"""wigner-ldp benchmark: CLI commands end to end, and per layer when traced.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Workloads: spectrum, rate_curve, mc_tail, mc_sphere (see workloads.py for
what each one exercises and why).  Every phase runs in a fresh interpreter
started from this process, one at a time, with BLAS pinned to one thread and
every Monte Carlo command given ``--threads 1``.

``--trace 0`` prints the end-to-end metrics: set-up time (median over five
fresh interpreters, calibrated like the ops), ops per second, median and tail op latency, the share
of ops that passed, and the peak resident memory of the run process.  Op
timings are calibrated against a fixed probe timed between the ops
(calibrate.py), so the shared host's drifting speed cancels; the raw wall
clock figures are printed beside them.
``--trace 1`` runs the same ops untraced and then traced, and prints the
per-layer metrics with the tracing overhead.  Either way the first op is
rerun in another fresh interpreter and must write a byte-identical payload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
record the environment, the op-list hash and every failure with its cause.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"
SETUPS = 5            # fresh interpreters whose set-up time is measured per run
TIME_LIMIT_S = 170.0  # every worker is stopped before the run exceeds this
TAIL_MIN_BEYOND = 10

# re-anchor measurements in ROADMAP.md that the traced numbers are compared to
ROADMAP_TABLE = (
    ("spectrum", "dyson.support_edge.ms", "support_edge", "160-385 ms"),
    ("spectrum", "dyson.spectral_measure.us_per_point", "spectral_measure, 501 points",
     "0.95-1.19 s, i.e. 1900-2380 us/point"),
    ("rate_curve", "dyson.log_potential.ms", "log_potential at a new x", "6-36 ms"),
    ("mc_tail", "mc.tail.us_per_matrix.N80", "tail MC per matrix at N=80",
     "106 draw + 45 assembly + 33 Cholesky = 184 us"),
)


class BenchError(RuntimeError):
    pass


class Workers:
    """Starts worker interpreters one at a time inside a private work dir."""

    def __init__(self, args, work: Path):
        self.args, self.work = args, work
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        self.count = 0

    def spawn(self, mode: str, trace: int = 0) -> dict:
        self.count += 1
        wdir = self.work / f"{self.count:02d}-{mode}"
        wdir.mkdir(parents=True)
        result = wdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--trace", str(trace),
               "--workdir", str(wdir), "--result", str(result)]
        if self.args.tiny:
            cmd.append("--tiny")
        log = wdir / "worker.log"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached before every phase ran")
        with open(log, "w") as fh:
            t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
            try:
                proc = subprocess.run(cmd, env=self.env, stdout=fh, stderr=fh, timeout=timeout)
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                raise BenchError(f"{mode} worker exceeded the time limit") from None
        if proc.returncode != 0 or not result.exists():
            tail = log.read_text()[-2000:]
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{tail}")
        res = json.loads(result.read_text())
        res["setup_s"] = res["ready"] - t_spawn
        res["dir"] = wdir
        return res


def _tail(lat: list[float]):
    """(value, label): the latency with TAIL_MIN_BEYOND ops above it.

    Below 2 * TAIL_MIN_BEYOND ops that order statistic would sit under the
    median, so the maximum is reported instead.
    """
    s = sorted(lat)
    n = len(s)
    if n < 2 * TAIL_MIN_BEYOND:
        return s[-1], f"max of {n} ops"
    k = n - TAIL_MIN_BEYOND  # 1-based rank
    return s[k - 1], f"p{math.floor(100.0 * k / n)} of {n} ops ({TAIL_MIN_BEYOND} beyond)"


def _calibrated(res: dict) -> list[float]:
    """Op latencies in seconds at the reference machine's speed."""
    f = calibrate.factors(res["probe_s"], len(res["records"]))
    return [r["s"] * k for r, k in zip(res["records"], f)]


def _failures(res: dict) -> list[str]:
    return [f"op {r['i']} ({r['kind']}): {r['fail']}" for r in res["records"] if r["fail"]]


def _observed(results: list[dict]) -> dict:
    """Numbers reported but not gated on, taken from checked payloads."""
    edge, sph = [], {}
    for res in results:
        for r in res["records"]:
            o = r["obs"]
            if "edge_err_over_bisection_tol" in o:
                edge.append(o["edge_err_over_bisection_tol"])
            if "abs_err" in o:
                sph.setdefault(o["theta"], []).append(o["abs_err"])
    return {"edge": edge, "sph": sph}


def _determinism(run: dict, rerun: dict) -> str:
    """"" when the rerun of op 0 wrote the same bytes, else the cause."""
    first = run["dir"] / "out" / "op0000"
    again = rerun["dir"] / "out" / "rerun"
    if not (first.exists() and again.exists()):
        return "op 0 wrote no payload"
    if first.read_bytes() != again.read_bytes():
        return "rerun of op 0 with the same seed wrote a different payload"
    return ""


def measure(args, work: Path):
    w = Workers(args, work)
    lines = []
    if args.trace == 0:
        run = w.spawn("run")
        setups = [run["setup_s"]] + [w.spawn("setup")["setup_s"] for _ in range(SETUPS - 2)]
        runs = [run]
    else:
        run = w.spawn("run")
        traced = w.spawn("run", trace=1)
        runs = [run, traced]
    rerun = w.spawn("rerun")
    nondet = _determinism(run, rerun)
    if args.trace == 0:
        setups.append(rerun["setup_s"])

    attempted = sum(len(r["records"]) for r in runs) + 1
    fails = [f for r in runs for f in _failures(r)]
    if rerun["records"][0]["fail"]:
        fails.append(f"rerun of op 0: {rerun['records'][0]['fail']}")
    elif nondet:
        fails.append(nondet)
    obs = _observed(runs)

    lines.append(f"workload {args.workload}  seed {args.seed}  op-list sha256 {run['digest']}")
    lines.append("environment " + json.dumps(run["env"], sort_keys=True))
    kinds = Counter(r["kind"] for r in run["records"])
    lines.append(f"ops {len(run['records'])} in {run['rounds']} rounds of {run['round_len']}: "
                 + ", ".join(f"{k} x{v}" for k, v in kinds.items()))
    lines.append(f"determinism: rerun of op 0 ({run['records'][0]['kind']}) "
                 + ("byte-identical" if not nondet else f"FAILED: {nondet}"))
    if obs["edge"]:
        lines.append(f"named-form edges: |r - oracle| up to {max(obs['edge']):.2f} x the "
                     f"bisection tolerance 1e-6(1+A) over {len(obs['edge'])} edges")
    for theta, errs in sorted(obs["sph"].items()):
        lines.append(f"mc spherical theta={theta}: |estimate - reference_J| median "
                     f"{statistics.median(errs):.4f} over {len(errs)} ops")

    raw = [r["s"] for r in run["records"]]
    lat = _calibrated(run)
    probe_ms = 1e3 * statistics.median(run["probe_s"])
    lines.append(f"calibration probe median {probe_ms:.2f} ms against {1e3 * calibrate.REF_S:.2f} ms "
                 f"on the reference machine; raw wall clock: ops_per_s {len(raw) / sum(raw):.4f}, "
                 f"op_p50_ms {1e3 * statistics.median(raw):.1f}, op_tail_ms {1e3 * _tail(raw)[0]:.1f}")
    if args.trace == 0:
        tail, label = _tail(lat)
        metrics = {
            "setup_s": (statistics.median(setups) * calibrate.REF_S / statistics.median(run["probe_s"]),
                        "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "op_tail_ms": (1e3 * tail, "ms"),
            "ok_frac": (1.0 - len(fails) / attempted, "ratio"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        lines.append(f"op_tail_ms is the {label}; failed_frac {len(fails) / attempted:.4f} "
                     f"({len(fails)} of {attempted} ops, rerun included)")
        lines.append("setup_s raw samples " + ", ".join(f"{s:.4f}" for s in setups)
                     + "; reported is their median, calibrated by the run's median probe")
    else:
        metrics = dict(traced["layers"])
        plain_s = sum(lat)
        traced_s = sum(_calibrated(traced))
        metrics["trace.untraced_ops_per_s"] = (len(lat) / plain_s, "1/s")
        metrics["trace.ops_per_s"] = (len(traced["records"]) / traced_s, "1/s")
        metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
        for theta in (0.3, 1.0):
            errs = obs["sph"].get(theta, [])
            metrics[f"mc.spherical.abs_err.theta{theta}"] = (
                statistics.median(errs) if errs else 0.0, "1")
        metrics["dyson.support_edge.err_over_bisection_tol"] = (
            max(obs["edge"]) if obs["edge"] else 0.0, "ratio")
        if metrics["mc.tail.factorizations"][0] != metrics["mc.tail.matrices"][0]:
            fails.append("mc.tail.factorizations differs from the number of matrices sampled")
        lines.append(f"tracing overhead {100 * metrics['trace.overhead_frac'][0]:.1f}% on the same "
                     f"{len(lat)} ops ({plain_s:.3f} s untraced, {traced_s:.3f} s traced, calibrated)")
        for workload, key, what, ref in ROADMAP_TABLE:
            val, unit = metrics[key]
            if workload == args.workload:
                lines.append(f"roadmap re-anchor: {what} {ref}; traced here {val:.4g} {unit}")
    for f in fails:
        lines.append("FAILED " + f)
    for name, (val, unit) in metrics.items():
        lines.append(f"  {name} = {val!r} {unit}")
    summary = {
        "correct": not fails,
        "attempted": attempted,
        "failed": len(fails),
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
    }
    return lines, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one round of shrunken ops, for the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wigner_ldp" / "cli.py").is_file():
        print(f"benchmark needs the package source at {ROOT / 'src' / 'wigner_ldp'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        lines, summary = measure(args, work)
    except BenchError as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it, or it is gone
            pass
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
