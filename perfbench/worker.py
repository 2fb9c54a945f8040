"""One benchmark process: set up, run a workload's ops, write the results.

``run.py`` starts this script in a fresh interpreter for every phase, so the
package's module-level caches start empty.  Set-up is everything from
interpreter start to the first op being ready: importing ``wigner_ldp`` and
writing the generated input files.  The ``--ready`` timestamp it reports is
``CLOCK_MONOTONIC``, which the parent subtracts from the moment it started
the process.

Modes:

* ``setup``  -- set up and stop;
* ``run``    -- set up, execute every op of the plan (the whole rounds that
  fit ``--seconds`` at the workload's nominal pace) with the calibration
  probe timed before each op and after the last, then check every payload;
* ``rerun``  -- set up and execute only the first op, for the determinism
  check against the ``run`` worker's first payload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_op(cli, op, out: str):
    """(exit code or None when it raised, error text, seconds)."""
    t0 = time.perf_counter()
    try:
        code, err = cli.main(["--out", out] + op.argv), ""
    except SystemExit as e:  # argparse rejects the argv
        code, err = e.code, "usage error"
    except Exception as e:  # the op failed; record it and go on
        code, err = None, f"{type(e).__name__}: {e}"
    return code, err, time.perf_counter() - t0


def _env() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        b = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{b.get('name', '?')} {b.get('version', '?')}"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "run", "rerun"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from wigner_ldp import cli

    import workloads

    plan = workloads.build(args.workload, args.seed, args.seconds, args.tiny)
    work = Path(args.workdir)
    for rel, text in plan.files.items():
        (work / rel).parent.mkdir(parents=True, exist_ok=True)
        (work / rel).write_text(text)
    (work / "out").mkdir(exist_ok=True)
    os.chdir(work)  # profile paths in argv and manifests stay relative
    ready = _monotonic()
    result = {"ready": ready}
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(result))
        return 0

    import calibrate  # binds numpy.linalg.eigh before the tracer wraps it

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    import checks

    ops = [op for rnd in plan.rounds for op in rnd]
    round_len = len(plan.rounds[0])
    records = []
    if args.mode == "rerun":
        code, err, dt = _run_op(cli, ops[0], "out/rerun")
        records.append({"i": 0, "kind": ops[0].kind, "code": code, "error": err, "s": dt})
        rounds = 0
    else:
        calibrate.probe()  # warm-up: first LAPACK and RNG calls
        probes = []
        for i, op in enumerate(ops):
            probes.append(calibrate.probe())
            code, err, dt = _run_op(cli, op, f"out/op{i:04d}")
            records.append({"i": i, "kind": op.kind, "code": code, "error": err, "s": dt})
        probes.append(calibrate.probe())
        rounds = len(plan.rounds)
        result["probe_s"] = probes
    for rec in records:
        out = Path("out/rerun" if args.mode == "rerun" else f"out/op{rec['i']:04d}")
        text = out.read_text() if out.exists() else None
        reason, obs = checks.check(rec["kind"], ops[rec["i"]].facts, rec["code"], text)
        rec["fail"] = rec["error"] or reason
        rec["obs"] = obs
    result.update(
        records=records,
        rounds=rounds,
        round_len=round_len,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=plan.digest(),
        env=_env(),
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(len(records), sum(r["s"] for r in records))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
