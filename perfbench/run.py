"""End-to-end benchmark of the singlering CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, seed 3

Run from the repository root.  Every CLI call is a fresh child process
running ``singlering.cli.main`` from ``src/`` (what the console script
does), with BLAS pinned to one thread, timed from outside with
``os.wait4``.  A workload iteration runs all of the workload's calls; the
loop repeats iterations until the next one would overrun ``--seconds``.

``--trace 0`` reports the end-to-end metrics as medians over iterations.
``--trace 1`` alternates plain iterations with iterations whose children
run under ``perfbench/spans.py`` and reports per-layer counts and self
times, plus the tracing overhead (traced minus plain wall time).

Every call's outputs are checked (exit code, caps, the closed-form ring
law) and every CSV is hashed: repeats of one seed with the same code must
give the same bytes, within a run and across runs (recorded under
``perfbench/.runs/hashes``).  The last stdout line is one JSON result;
the exit code is nonzero when a check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "perfbench" / ".runs"

CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CLI = "import sys; from singlering.cli import main; sys.exit(main())"
SPANS = str(Path(__file__).resolve().parent / "spans.py")
SETUP_CALLS = 4  # validate calls whose median is setup_s
HARD_LIMIT_S = 170.0  # a run must exit within 180 s; calls are killed past this

# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Child:
    """Outcome of one CLI call, measured from outside the process."""

    def __init__(self, argv, log_path, deadline, trace_path=None):
        env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV)
        if trace_path is None:
            cmd = [sys.executable, "-c", CLI, *argv]
        else:
            cmd = [sys.executable, SPANS, str(trace_path), *argv]
        timeout = max(1.0, deadline - time.monotonic())
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.timed_out = self.wall_s >= timeout
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.output = Path(log_path).read_text(errors="replace")
        self.trace = None
        if trace_path is not None and Path(trace_path).exists():
            self.trace = json.loads(Path(trace_path).read_text())

    def problems(self):
        if self.timed_out:
            return ["timed out"]
        if self.code != 0:
            return [f"exit code {self.code}: {self.output.strip()[-300:]}"]
        return []


def code_digest():
    """Fingerprint of the library and the benchmark, keying stored hashes."""
    h = hashlib.sha256()
    for base in (SRC, ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "child_env": CHILD_ENV,
    }


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------


class Run:
    def __init__(self, name, seed, seconds, trace):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.work = RUNS / "work" / name
        self.calls = workloads.WORKLOADS[name](seed)
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.info = {}
        self.hash_path = RUNS / "hashes" / code_digest() / f"{name}-seed{seed}.json"
        self.expected = (
            json.loads(self.hash_path.read_text()) if self.hash_path.exists() else None
        )
        self.hashes = None

    def _fail(self, where, problems):
        self.failures.extend(f"{where}: {p}" for p in problems)
        return bool(problems)

    def _spawn(self, argv, log, trace_path=None):
        self.attempted += 1
        return Child(argv, log, self.deadline, trace_path)

    def setup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "cfg").mkdir(parents=True)
        configs = []
        for call in self.calls:
            if call.config is not None:
                path = self.work / "cfg" / f"{call.label}.json"
                path.write_text(json.dumps(call.config))
                configs.append((path, call.command))
        walls = []
        for i in range(SETUP_CALLS):
            path, command = configs[i % len(configs)]
            argv = ["validate", "--config", str(path), "--for-command", command]
            child = self._spawn(argv, self.work / "validate.log")
            self.failed += self._fail(f"validate {path.name}", child.problems())
            walls.append(child.wall_s)
        return walls

    def iteration(self, k, traced):
        out = self.work / f"it{k}"
        out.mkdir()
        wall = cpu = rss = 0.0
        hashes, output_bytes, traces, broken = {}, 0, [], set()
        for call in self.calls:
            d = out / call.label
            if call.command == "report":
                argv = ["report", str(out / call.report_of), "--out", str(d)]
            else:
                argv = [call.command, "--config", str(self.work / "cfg" / f"{call.label}.json"),
                        "--out", str(d)]
                if call.seeded:
                    argv += ["--seed", str(self.seed)]
                if call.threads is not None:
                    argv += ["--threads", str(call.threads)]
            trace_path = out / f"{call.label}.trace.json" if traced else None
            child = self._spawn(argv, out / f"{call.label}.log", trace_path)
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
            where = f"{self.name} seed {self.seed} iteration {k} {call.label}"
            if self._fail(where, child.problems()) or (traced and child.trace is None):
                broken.add(call.label)
                continue
            try:
                problems, info = call.check(call, str(d), child.output)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems, info = [f"unreadable output: {exc!r}"], {}
            if self._fail(where, problems):
                broken.add(call.label)
            self.info[call.label] = info
            for path in sorted(d.rglob("*")):
                output_bytes += path.stat().st_size
                if path.suffix == ".csv":
                    hashes[f"{call.label}/{path.name}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
            if traced:
                traces.append(child.trace)
        self._check_hashes(k, hashes, broken)
        self.failed += len(broken)
        shutil.rmtree(out)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                "output_bytes": output_bytes, "traces": traces}

    def _check_hashes(self, k, hashes, broken):
        if broken:
            return
        reference = self.expected if self.expected is not None else self.hashes
        if reference is None:
            self.hashes = hashes
            return
        for key in sorted(set(reference) | set(hashes)):
            if reference.get(key) != hashes.get(key):
                self._fail(f"{self.name} seed {self.seed} iteration {k} {key}",
                           ["CSV bytes differ from an earlier repeat of this seed"])
                broken.add(key.split("/", 1)[0])
        if self.hashes is None:
            self.hashes = hashes

    def execute(self):
        setup_walls = self.setup()
        plain, traced = [], []
        start = time.monotonic()
        k = 0
        while True:
            use_trace = self.trace and k % 2 == 1
            (traced if use_trace else plain).append(self.iteration(k, use_trace))
            k += 1
            if self.failures or time.monotonic() > self.deadline:
                break
            if plain and (traced or not self.trace):
                nxt = traced if (self.trace and k % 2 == 1) else plain
                predicted = nxt[-1]["wall_s"]
                if time.monotonic() - start + predicted > self.seconds:
                    break
        problems = workloads.self_test(self.calls)
        self._fail("oracle", problems)
        if self.expected is None and self.hashes is not None and not self.failures:
            self.hash_path.parent.mkdir(parents=True, exist_ok=True)
            self.hash_path.write_text(json.dumps(self.hashes, indent=1, sort_keys=True))
        return setup_walls, plain, traced


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(setup_walls, plain):
    """End-to-end metrics: name -> (median, unit, samples)."""
    metrics = {
        name: (_median([it[name] for it in plain]), unit, len(plain))
        for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
    }
    metrics["setup_s"] = (_median(setup_walls), "s", len(setup_walls))
    return metrics


# ---------------------------------------------------------------------------
# per-layer metrics from the traced iterations
# ---------------------------------------------------------------------------


def _merge(traces):
    spans, counts = {}, {}
    pool = {"task_s": 0.0, "capacity_s": 0.0}
    for tr in traces:
        for name, (calls, total, self_s) in tr["spans"].items():
            e = spans.setdefault(name, [0, 0.0, 0.0])
            e[0] += calls
            e[1] += total
            e[2] += self_s
        for name, value in tr["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for key in pool:
            pool[key] += tr["pool"][key]
    return spans, counts, pool


def layer_metrics(it):
    """Per-layer metrics of one traced iteration: name -> (value, unit)."""
    spans, counts, pool = _merge(it["traces"])

    def calls(*names):
        return sum(spans.get(n, (0,))[0] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_self(layer):
        return sum(v[2] for k, v in spans.items() if k.split(".")[0] == layer)

    haar = ("linalg.haar_unitary", "linalg.haar_orthogonal")
    eig = "linalg.hermitian_eigensystem"
    sld = "linalg.shifted_log_abs_det"
    m = {}
    for fn in ("solve_delta_conv", "solve_phi_system"):
        name = f"freeconv.{fn}"
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".iterations"] = (counts.get(name + ".iterations", 0), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    m["freeconv.bulk_bound_certificate.self_s"] = (self_s("freeconv.bulk_bound_certificate"), "s")
    m["freeconv.self_s"] = (layer_self("freeconv"), "s")
    m["ringlaw.log_potential.calls"] = (calls("ringlaw.log_potential"), "count")
    m["ringlaw.log_potential.self_s"] = (self_s("ringlaw.log_potential"), "s")
    m["ringlaw.radial_profile.self_s"] = (self_s("ringlaw.radial_profile"), "s")
    m["ringlaw.self_s"] = (layer_self("ringlaw"), "s")
    m["linalg.haar.calls"] = (calls(*haar), "count")
    m["linalg.haar.self_s"] = (self_s(*haar), "s")
    m[eig + ".calls"] = (calls(eig), "count")
    m[eig + ".vector_calls"] = (counts.get(eig + ".vector_calls", 0), "count")
    m[eig + ".dim3"] = (counts.get(eig + ".dim3", 0), "n3-computed")
    m[eig + ".self_s"] = (self_s(eig), "s")
    m["linalg.hessenberg_form.self_s"] = (self_s("linalg.hessenberg_form"), "s")
    m[sld + ".calls"] = (calls(sld), "count")
    m[sld + ".shifts"] = (counts.get(sld + ".shifts", 0), "count")
    m[sld + ".self_s"] = (self_s(sld), "s")
    m["linalg.self_s"] = (layer_self("linalg"), "s")
    for fn in ("sample_X", "block_H", "resolvent_observables"):
        m[f"models.{fn}.calls"] = (calls(f"models.{fn}"), "count")
        m[f"models.{fn}.self_s"] = (self_s(f"models.{fn}"), "s")
    m["models.hermitization.self_s"] = (self_s("models.hermitization"), "s")
    m["models.m_w.calls"] = (calls("models.m_w"), "count")
    m["models.self_s"] = (layer_self("models"), "s")
    m["locallaw.self_s"] = (layer_self("locallaw"), "s")
    for fn in ("linear_statistic_lhs", "linear_statistic_rhs"):
        m[f"locallaw.{fn}.self_s"] = (self_s(f"locallaw.{fn}"), "s")
    busy = pool["task_s"] / pool["capacity_s"] if pool["capacity_s"] > 0 else 0.0
    m["locallaw.parallel_map.busy_frac"] = (busy, "fraction")
    m["measure.self_s"] = (layer_self("measure"), "s")
    m["cli.import_s"] = (_median([tr["import_s"] for tr in it["traces"]]), "s")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    m["cli.output_bytes"] = (it["output_bytes"], "bytes")
    return m


def traced_metrics(plain, traced):
    per_it = [layer_metrics(it) for it in traced]
    metrics = {
        name: (_median([m[name][0] for m in per_it]), unit, len(per_it))
        for name, (_, unit) in per_it[0].items()
    }
    overhead = _median([it["wall_s"] for it in traced]) - _median([it["wall_s"] for it in plain])
    metrics["trace.overhead_s"] = (overhead, "s", len(traced))
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_one(name, seed, seconds, trace):
    run = Run(name, seed, seconds, trace)
    setup_walls, plain, traced = run.execute()
    rows = {}
    if trace and plain and traced:
        rows = traced_metrics(plain, traced)
    elif not trace and plain:
        rows = end_to_end(setup_walls, plain)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(), "code_digest": code_digest(),
        "iteration_wall_s": {"plain": [it["wall_s"] for it in plain],
                             "traced": [it["wall_s"] for it in traced]},
        "setup_wall_s": setup_walls,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in rows.items()},
        "attempted": run.attempted, "failed": run.failed,
        "fail_frac": run.failed / max(run.attempted, 1),
        "failures": run.failures, "csv_sha256": run.hashes, "info": run.info,
    }
    RUNS.mkdir(parents=True, exist_ok=True)
    record_path = RUNS / f"{name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"{name} seed {seed}: {len(plain)} plain + {len(traced)} traced iterations, "
          f"record {record_path.relative_to(ROOT)}")
    for k, (v, u, n) in rows.items():
        print(f"  {k:45s} {v:14.6g} {u:12s} median of {n}")
    print(f"  {'fail_frac':45s} {record['fail_frac']:14.6g} {'fraction':12s} "
          f"{run.failed} of {run.attempted} calls")
    for f in run.failures:
        print(f"  FAILED {f}")
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "singlering" / "cli.py").is_file():
        print(f"no singlering sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the oracle self-test calls the library in-process
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names]

    def metric_name(rec, k):
        return k if len(records) == 1 else f"{rec['workload']}.{k}"

    result = {
        "correct": all(not r["failures"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            metric_name(r, k): {"value": m["value"], "unit": m["unit"]}
            for r in records for k, m in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
