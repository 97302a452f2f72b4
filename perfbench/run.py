#!/usr/bin/env python3
"""The sip-effmass benchmark: seeded workloads, one closed-loop client.

Run from the root of a checkout (the directory holding ``src/`` and
``BENCHMARK.json``):

    python3 perfbench/run.py --workload verify_fd --seed 1 --seconds 20 --trace 0

One client in one process issues each task only after the previous one
has finished.  A run repeats its workload's fixed pass of tasks (see
``workloads.py``) until the tasks have been busy for ``--seconds``, and
checks every output against the benchmark's own references
(``reference.py``).

``--trace 0`` reports the end-to-end metrics with tracing off, with times
scaled to a nominal machine speed (``speed.py``) and the raw wall times
printed beside them.
``--trace 1`` runs the pass once untraced and once traced, checks that
the CLI artifacts of both are byte-identical, and reports the per-layer
metrics and the tracing overhead (``tracer.py``).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record of a run, including the failing tasks, the
provenance and the per-span breakdown, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402  (standard library only; numpy is imported later)
import workloads  # noqa: E402

SETUP_RUNS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CALIBRATION_LOOPS = 1000  # numpy-loop iterations timed at each task boundary

# units of the metrics this benchmark computes; BENCHMARK.json must agree
END_TO_END_UNITS = {
    "setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms", "task_p90_ms": "ms",
    "fail_frac": "1", "max_err": "1", "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("mu_per_point", "parallel_eff", "eig_residual_max", "factor")):
        return "1"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> int:
    """At most nproc threads ever run: one client, BLAS single-threaded."""
    workers = min(2, nproc())
    os.environ["SIP_EFFMASS_WORKERS"] = str(workers)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return workers


def git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def py_digest(directory: Path) -> str:
    """sha256 over the names and bytes of the ``*.py`` files in ``directory``."""
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def artifact_digest(out: Path) -> tuple:
    """sha256 over the files a task wrote (relative paths and bytes), and their size."""
    h, size = hashlib.sha256(), 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(str(path.relative_to(out)).encode() + b"\0" + data)
    return h.hexdigest(), size


def probe_setup(root: Path, spec_path: Path) -> tuple:
    """One set-up in a fresh interpreter: raw and scaled seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(root), str(spec_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["scaled_s"]


class TaskFailed(Exception):
    pass


class Client:
    """Runs tasks against the package and checks what they produce."""

    def __init__(self, sip, profiles, mumaps, checker):
        self.sip = sip
        self.profiles, self.mumaps = profiles, mumaps
        self.checker = checker
        self.tracer = None  # set before a traced pass
        import numpy

        self.np = numpy

    # -- execution -----------------------------------------------------------

    def execute(self, task, out: Path):
        if task.kind == "cli":
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = self.sip.cli.main([*task.argv, f"--out={out}"])
            if code != 0:
                raise TaskFailed(f"exit {code}: {err.getvalue().strip()}")
            return None
        spec = task.spec
        profile = self.profiles[spec["profile"]]
        mumap = self.mumaps[(spec["profile"], spec["x_ref"])]
        if task.kind == "mu_inverse":
            return [mumap.mu_inverse(m) for m in spec["targets"]]
        model = self.model(spec["family"], profile, mumap)
        if task.kind == "zeromode":
            x = self.np.linspace(*spec["grid"])
            gs = self.sip.groundstate
            generic = gs.psi0_generic(model, x)
            return generic, gs.psi0_closed(model, x), gs.annihilation_residual(model, generic)
        if task.kind == "coulomb_fd":
            vf = self.sip.verify
            grid = vf.GridSpec(*spec["grid"])
            diag, off = vf.discretize(profile, model.potential_V1, grid)
            return vf.lowest_eigenvalues(diag, off, spec["k"], grid=grid)
        raise ValueError(f"unknown task kind {task.kind!r}")

    def model(self, fam, profile, mumap):
        fm = self.sip.families
        if fam["tag"] == "coulomb":
            return fm.FamilyModel.coulomb(a=fam["a"], b=fam["b"], l=fam["l"], ze2=fam["ze2"],
                                          profile=profile, mumap=mumap)
        if fam["tag"] == "morse" and fam["b"] == 0.0:
            return fm.FamilyModel.morse_reduced(a=fam["a"], lambda0=fam["lambda0"],
                                                sigma0=fam["sigma0"], profile=profile, mumap=mumap)
        return fm.FamilyModel(
            family=fam["tag"],
            coeffs=fm.FamilyCoeffs(a=fam["a"], b=fam.get("b", 0.0), c=fam.get("c", 0.0)),
            params0=fm.ParamTriple(fam["lambda0"], fam["sigma0"], fam["rho0"]),
            profile=profile, mumap=mumap,
        )

    def check(self, task, out: Path, result) -> float:
        if task.kind == "cli":
            return self.checker.cli(task, out)
        return getattr(self.checker, task.kind)(task.spec, result)

    # -- the closed loop -----------------------------------------------------

    def passes(self, tasks, seconds: float, out_root: Path, traced: bool = False) -> dict:
        """Whole passes over ``tasks`` until the tasks were busy ``seconds``."""
        records, digests, busy, n_pass = [], {}, 0.0, 0
        tracer = self.tracer if traced else None
        cals, inner = [speed.numpy_loop(CALIBRATION_LOOPS)], []
        sampler = speed.SpeedSampler(speed.numpy_loop)
        while True:
            for i, task in enumerate(tasks):
                out = out_root / f"pass{n_pass}" / f"task{i:03d}"
                if tracer:
                    tracer.task, tracer.enabled = f"{n_pass}:{i}", True
                failure, result = None, None
                # a sweep's pool threads contend with the client thread for the
                # interpreter lock and slow the sampling loop too, which would
                # scale away the pool's own cost: sweeps use boundary samples only
                sampling = task.argv is None or task.argv[0] != "sweep"
                t0 = time.perf_counter()
                try:
                    with sampler if sampling else contextlib.nullcontext():
                        result = self.execute(task, out)
                except Exception as exc:  # a failing task is recorded, the loop goes on
                    failure = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0 - (sampler.spent if sampling else 0.0)
                inner.append(list(sampler.samples) if sampling else [])
                if tracer:
                    tracer.enabled = False
                    if sampling:
                        tracer.samples.extend(sampler.intervals)
                busy += latency
                err = 0.0
                if failure is None:
                    try:
                        err = self.check(task, out, result)
                    except Exception as exc:
                        failure = f"check: {type(exc).__name__}: {exc}"
                digest, size = artifact_digest(out) if out.exists() else (None, 0)
                if digest is not None and digests.setdefault(i, digest) != digest:
                    failure = failure or "artifacts differ from the first pass"
                records.append({"task": i, "label": task.label, "pass": n_pass,
                                "latency_s": latency, "max_err": err, "bytes": size,
                                "failure": failure})
                shutil.rmtree(out, ignore_errors=True)
                cals.append(speed.numpy_loop(CALIBRATION_LOOPS))
            n_pass += 1
            if busy >= seconds:
                break
        for rec, factor, samples in zip(records, speed.scale_factors(cals, inner), inner):
            rec["scaled_s"] = rec["latency_s"] * factor
            rec["speed_samples"] = len(samples)
        return {"records": records, "digests": digests, "busy_s": busy, "passes": n_pass,
                "calibration_s": cals}


# --------------------------------------------------------------------------
# metrics


def timing_metrics(recs: list, setup: list, key: str) -> dict:
    """Set-up, throughput and latency percentiles from one kind of time."""
    lat = sorted(r[key] for r in recs)
    m = {
        "setup_s": statistics.median(setup),
        "tasks_per_s": len(lat) / sum(lat),
        "task_p50_ms": 1e3 * statistics.median(lat),
    }
    # a percentile is reported only with at least ten samples beyond it
    if len(lat) >= 100:
        m["task_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[8]
    return m


def end_to_end(recs: list, setup_raw: list, setup_scaled: list) -> tuple:
    """End-to-end metrics (times scaled to the nominal machine speed), the
    same metrics in raw wall time, and the sample count behind each."""
    m = timing_metrics(recs, setup_scaled, "scaled_s")
    m.update({
        "fail_frac": sum(r["failure"] is not None for r in recs) / len(recs),
        "max_err": max(r["max_err"] for r in recs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    raw = timing_metrics(recs, setup_raw, "latency_s")
    return m, raw, {"setup_s": len(setup_raw), "task_p50_ms": len(recs), "task_p90_ms": len(recs)}


def pass_metrics(plain: dict, traced: dict) -> dict:
    """Task time of the untraced and the traced pass, scaled and raw, the
    tracing overhead, and the median speed factor (scaled / raw time) of
    the untraced pass."""
    m = {}
    for label, res in (("untraced", plain), ("traced", traced)):
        m[f"trace.{label}_s"] = sum(r["scaled_s"] for r in res["records"])
        m[f"trace.{label}_raw_s"] = sum(r["latency_s"] for r in res["records"])
    m["trace.overhead_s"] = m["trace.traced_s"] - m["trace.untraced_s"]
    m["speed.factor"] = statistics.median(r["scaled_s"] / r["latency_s"] for r in plain["records"])
    return m


def provenance(root: Path, args, workers: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(), "cpu_count": os.cpu_count(),
        "affinity_size": len(os.sched_getaffinity(0)), "workers": workers,
        "thread_env": {v: os.environ.get(v) for v in ("SIP_EFFMASS_WORKERS", *THREAD_VARS)},
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_sha": git_sha(root), "src_sha256": py_digest(root / "src" / "sip_effmass"),
        "bench_sha256": py_digest(HERE),
    }


def failures(recs) -> list:
    return [f"{r['label']} (pass {r['pass']}): {r['failure']}" for r in recs if r["failure"]]


# --------------------------------------------------------------------------
# the run


def run(args, root: Path, bench: dict, work: Path, workers: int) -> tuple:
    plan = workloads.generate(args.workload, args.seed, work / "inputs")
    spec_path = work / "setup.json"
    spec_path.write_text(json.dumps(plan.setup_spec()), encoding="utf-8")
    setup = [] if args.trace else [probe_setup(root, spec_path) for _ in range(SETUP_RUNS)]
    setup_raw, setup_scaled = [r for r, _ in setup], [s for _, s in setup]

    sys.path.insert(0, str(root / "src"))
    import sip_effmass
    import sip_effmass.cli  # the package does not import its CLI
    import setup_probe
    import reference

    if Path(sip_effmass.__file__).resolve().parent != (root / "src" / "sip_effmass").resolve():
        raise RuntimeError(f"imported sip_effmass from {sip_effmass.__file__}, not from src/")
    profiles, mumaps = setup_probe.build(plan.setup_spec(), sip_effmass)
    checker = reference.Checker(plan)
    for task in plan.tasks:
        if task.kind == "mu_inverse":
            task.spec["targets"] = list(checker.profiles[task.spec["profile"]].mu(task.spec["xs"]))
    client = Client(sip_effmass, profiles, mumaps, checker)
    record = {"provenance": provenance(root, args, workers), "tasks_per_pass": len(plan.tasks)}

    if not args.trace:
        res = client.passes(plan.tasks, args.seconds, work / "runs")
        metrics, raw, samples = end_to_end(res["records"], setup_raw, setup_scaled)
        record.update(passes=res["passes"], busy_s=res["busy_s"], raw_wall_metrics=raw,
                      setup_raw_s=setup_raw, setup_scaled_s=setup_scaled,
                      calibration_s=res["calibration_s"], samples=samples,
                      records=res["records"])
        recs, extra_ok = res["records"], True
        names = [m["name"] for m in bench["end_to_end"]]
    else:
        import tracer as tracing

        plain = client.passes(plan.tasks, 0.0, work / "plain")
        client.tracer = tracing.Tracer()
        tracing.install(client.tracer, sip_effmass)
        for prof in profiles.values():
            client.tracer.count_u(prof)
        traced = client.passes(plan.tasks, 0.0, work / "traced", traced=True)
        extra_ok = plain["digests"] == traced["digests"]
        requested = sum(t.points for t in plan.tasks)
        spans = tracing.attach_samples(client.tracer.spans, client.tracer.samples,
                                       client.tracer.client)
        metrics, by_name = tracing.layer_metrics(
            spans, client.tracer.u_totals(), requested,
            sum(r["bytes"] for r in traced["records"]), workers)
        metrics.update(pass_metrics(plain, traced))
        recs = plain["records"] + traced["records"]
        record.update(artifacts_identical=extra_ok, spans_by_name=by_name,
                      records=recs)
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(spans), encoding="utf-8")
        names = [m["name"] for m in bench["per_layer"]]
        samples = {}

    record["metrics"] = metrics
    record["failures"] = failures(recs)
    out = {
        "correct": not record["failures"] and extra_ok,
        "attempted": len(recs),
        "failed": sum(r["failure"] is not None for r in recs),
        "metrics": {},
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name in names:
        out["metrics"][name] = {"value": metrics[name], "unit": units[name]}
    return record, out, samples


def report(record: dict, out: dict, samples: dict, trace: bool) -> None:
    prov = record["provenance"]
    print(f"# {prov['workload']} seed={prov['seed']} trace={prov['trace']} "
          f"nproc={prov['nproc']} workers={prov['workers']} sha={prov['git_sha']}")
    print(f"# {out['attempted']} tasks attempted, {out['failed']} failed, "
          f"{record['tasks_per_pass']} tasks per pass")
    for line in record["failures"]:
        print(f"# FAILED {line}")
    m = record["metrics"]
    if trace:
        print(f"# artifacts identical traced vs untraced: {record['artifacts_identical']}")
        for name in sorted(m):
            print(f"{name} {m[name]:.6g}")
        return
    raw = record["raw_wall_metrics"]
    for name, unit in END_TO_END_UNITS.items():
        n = f" (n={samples[name]})" if name in samples else ""
        wall = f"  [raw wall time {raw[name]:.6g}]" if name in raw else ""
        if name in m:
            print(f"{name} {m[name]:.6g} {unit}{n}{wall}")
        else:
            print(f"{name} not reported: {samples[name]} tasks, fewer than 100{n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sip_effmass" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/sip_effmass", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workers = pin_threads()
    (HERE / "out").mkdir(exist_ok=True)
    work = HERE / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record, out, samples = run(args, root, bench, work, workers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "out" / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    report(record, out, samples, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
