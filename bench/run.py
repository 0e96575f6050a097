"""End-to-end and per-layer benchmark of the defcolor command line.

Usage, from the repository root:

    python3 bench/run.py --workload planar-color [--seed 1] [--seconds 20] [--trace 0|1]

One client calls ``defcolor.cli.main`` in one process, one job after
another (a closed loop, no threads).  A job is one pipeline invocation:

* color:  ``color --trace`` then ``check`` on the coloring it wrote;
* audit:  ``audit --t <t> --format csv``;
* solve:  ``solve --defects 1,1 --budget B`` then ``check`` when found.

``--trace 0`` is a timed run.  The program runs in a worker process
(worker.py) and so does the baseline, a frozen copy of the program in
``bench/baseline/``.  The run builds the inputs a fixed number of times
with each, then runs whole passes over the workload's schedule until
``--seconds`` have passed, every job on the program and on the baseline
back to back.  Each time metric is the program's figure over the
baseline's in the same run, times the baseline's figure on the baseline
machine, so the machine's changes of speed cancel (README.md,
"Machine-speed scaling").  ``--trace 1`` builds the inputs once in this
process under tracing, then alternates an untraced and a traced pass for
``--seconds`` and prints the per-layer metrics plus the tracing overhead.
Every output is checked by ``checks.py``; the last line of stdout is the
JSON summary, and the full report (provenance, per-document facts,
digests, check results, raw figures) goes to ``bench/out/``.
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
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import worker
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

DEFAULT_SEED = 1
HOLDOUT_SEED = 2  # re-check every claimed gain on this seed as well
DEFAULT_SECONDS = 20
WORKLOADS = ("planar-color", "planar-audit", "gate-heavy", "exact-solve")
# Input builds per timed run, by the program and by the baseline each.
SETUP_BUILDS = {"planar-color": 2, "planar-audit": 2, "gate-heavy": 40,
                "exact-solve": 5}
# The baseline's own figures on the baseline machine: medians over 5 to 10
# timed runs with different seeds.  A timed run reports each time metric as
# the program's figure over the baseline's figure in the same run, times
# this (README.md, "Machine-speed scaling").
BASELINE_NOMINAL = {
    "planar-color": {"elements_per_s": 10_525.0, "job_s_p50": 0.1864, "job_s_tail": 0.4464,
                     "setup_s": 2.999},
    "planar-audit": {"elements_per_s": 20_011.0, "job_s_p50": 0.1100, "job_s_tail": 0.2153,
                     "setup_s": 2.949},
    "gate-heavy": {"elements_per_s": 3_700.0, "job_s_p50": 0.1582, "job_s_tail": 0.2438,
                   "setup_s": 0.0271},
    "exact-solve": {"elements_per_s": 8_348.0, "job_s_p50": 0.0155, "job_s_tail": 0.0319,
                    "setup_s": 0.5865},
}

SETUP_LAYERS = ("generate", "builder")  # traced while building inputs, not in jobs
EXPECTED_EXIT = {"color": {0}, "audit": {0}, "solve": {0, 1, 4}}
OUTPUT_FILES = {"color": ("col", "trace"), "audit": ("csv",), "solve": ("sol",)}


# -- workloads -------------------------------------------------------------------


@dataclass
class Workload:
    docs: list  # list[inputs.Document]
    schedule: list[tuple[int, str]]  # (document index, pipeline): one pass


def workload_of(name: str, docs) -> Workload:
    if name in ("planar-color", "planar-audit"):
        pipeline = "color" if name == "planar-color" else "audit"
        return Workload(docs, [(i, pipeline) for i in inputs.PLANAR_SCHEDULE])
    if name == "gate-heavy":
        return Workload(docs, inputs.gate_schedule(docs))
    return Workload(docs, [(i, "solve") for i in range(len(docs))])


def build_workload(name: str, seed: int) -> Workload:
    return workload_of(name, inputs.documents(name, seed))


class Worker:
    """A worker.py process serving one package; see worker.py."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "--package", package],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def request(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the {self.package} worker ended "
                               f"with exit code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_inputs(name: str, seed: int, workdir: Path,
                 baseline: Worker) -> tuple[Workload, dict]:
    """Build the inputs SETUP_BUILDS[name] times with the program, in a
    worker that writes them to workdir, and as often with the baseline,
    alternating which goes first.  Returns the workload and the build times."""
    builds = {"program": [], "baseline": []}
    digests = set()
    with Worker("src") as program:
        for r in range(SETUP_BUILDS[name]):
            for w in (program, baseline) if r % 2 == 0 else (baseline, program):
                out = str(workdir) if w is program else None
                reply = w.request(op="build", workload=name, seed=seed, out=out)
                if w is program:
                    digests.add(reply["digest"])
                builds["program" if w is program else "baseline"].append(
                    reply["build_s"])
    builds["deterministic"] = len(digests) == 1
    return workload_of(name, inputs.read_documents(workdir)), builds


# -- jobs ------------------------------------------------------------------------


@dataclass
class JobResult:
    latency: float
    outputs: tuple[bytes, ...]
    problems: list[str]


class Runner:
    """Runs pipelines on the workload's documents through cli.main, in this
    process or in a worker process."""

    def __init__(self, workdir: Path, docs, worker: Worker | None = None) -> None:
        self.workdir = workdir
        self.docs = docs
        self.worker = worker
        for i, doc in enumerate(docs):
            self.path(i, "graph").write_text(doc.text)

    def path(self, i: int, kind: str) -> Path:
        return self.workdir / f"d{i}.{kind}"

    def argvs(self, i: int, pipeline: str, tag: str = "") -> list[list[str]]:
        """The job's command lines: the pipeline, then check on its coloring
        when it exits 0.  ``tag`` marks the output files of another runner."""
        doc = self.docs[i]
        g = str(self.path(i, "graph"))
        out = {k: str(self.path(i, tag + k)) for k in ("col", "trace", "csv", "sol")}
        if pipeline == "color":
            return [["color", "--input", g, "--output", out["col"], "--trace", out["trace"]],
                    ["check", "--input", g, "--coloring", out["col"]]]
        if pipeline == "audit":
            return [["audit", "--input", g, "--t", str(doc.t), "--format", "csv",
                     "--output", out["csv"]]]
        return [["solve", "--input", g, "--defects", "1,1", "--budget",
                 str(inputs.SOLVE_BUDGET), "--output", out["sol"]],
                ["check", "--input", g, "--coloring", out["sol"]]]

    def run(self, i: int, pipeline: str) -> JobResult:
        files = [self.path(i, kind) for kind in OUTPUT_FILES[pipeline]]
        for f in files:  # a job that stops writing must not pass on stale bytes
            f.unlink(missing_ok=True)
        argvs = self.argvs(i, pipeline)
        if self.worker is None:
            reply = worker.run_job(argvs)
        else:
            reply = self.worker.request(op="job", argvs=argvs)
        if reply["error"]:  # a crash in the program is a failed job
            return JobResult(reply["latency"], (), [reply["error"]])
        codes, out, err = reply["codes"], reply["stdout"], reply["stderr"]
        problems = []
        if codes[0] not in EXPECTED_EXIT[pipeline]:
            problems.append(f"{pipeline} exited {codes[0]}: {err.strip()}")
        if len(codes) == 2 and (codes[1] != 0 or not out.endswith("result: valid\n")):
            problems.append(f"check exited {codes[1]}")
        outputs = [json.dumps(codes).encode(), out.encode(), err.encode()]
        if codes[0] == 0:
            try:
                outputs += [f.read_bytes() for f in files]
            except OSError as exc:
                problems.append(f"{pipeline} wrote no output: {exc}")
        return JobResult(reply["latency"], tuple(outputs), problems)


# -- output checks -------------------------------------------------------------------


@dataclass
class Checker:
    """Requires every repeat of a (document, pipeline) job to give the same
    bytes as its first run, and checks each first output independently."""

    docs: list
    first: dict[tuple[int, str], tuple[bytes, ...]] = field(default_factory=dict)
    problems: dict[tuple[int, str], list[str]] = field(default_factory=dict)
    passed: Counter = field(default_factory=Counter)
    failed: int = 0
    step_counts: dict[tuple[int, str], dict[str, int]] = field(default_factory=dict)

    def record(self, key: tuple[int, str], result: JobResult) -> None:
        problems = self.problems.setdefault(key, [])
        if not result.problems and self.first.setdefault(key, result.outputs) == result.outputs:
            self.passed[key] += 1
            return
        problems.extend(result.problems or ["output differs from the first run"])
        self.failed += 1

    def verify(self) -> int:
        """Check every first output; returns the number of failed jobs."""
        for key, outputs in self.first.items():
            verdict = self._verify(key, outputs)
            if verdict:
                self.problems[key].extend(verdict)
                self.failed += self.passed.pop(key)
        return self.failed

    def _verify(self, key, outputs) -> list[str]:
        i, pipeline = key
        doc = self.docs[i]
        adj = checks.parse_adjacency(doc.text)
        codes = json.loads(outputs[0])
        if pipeline == "color":
            col, trace = outputs[3].decode(), outputs[4].decode()
            problems = (checks.coloring_problems(adj, col, (1, doc.t))
                        + checks.replay_problems(trace, col))
            if not problems:
                self.step_counts[key] = checks.trace_counts(trace)
            return problems
        if pipeline == "audit":
            return checks.audit_csv_problems(adj, doc.genus, outputs[3].decode())
        if codes[0] == 0:
            return checks.coloring_problems(adj, outputs[3].decode(), (1, 1))
        return []

    def digest(self, schedule) -> tuple[str, int]:
        """SHA-256 over the outputs of every job of the schedule, in order,
        and the number of jobs it covers (a failed job has no outputs)."""
        h = hashlib.sha256()
        covered = 0
        for key in dict.fromkeys(schedule):
            i, pipeline = key
            h.update(f"{self.docs[i].sha256} {pipeline}\n".encode())
            for blob in self.first.get(key, ()):
                h.update(len(blob).to_bytes(8, "big"))
                h.update(blob)
            covered += key in self.first
        return h.hexdigest(), covered


# -- statistics --------------------------------------------------------------------


def key_means(samples, col: int) -> list[float]:
    """Each job's latency (column ``col`` of the samples) replaced by the
    mean over the run of its (document, pipeline) key.  Quantiles of these
    keep which jobs are slow but not the machine's job-to-job jitter, which
    on the baseline machine moves a single job's time by up to 1.8x."""
    by_key: dict[tuple[int, str], list[float]] = {}
    for s in samples:
        by_key.setdefault(s[:2], []).append(s[col])
    means = {key: statistics.fmean(v) for key, v in by_key.items()}
    return [means[s[:2]] for s in samples]


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten jobs beyond it."""
    n = len(latencies)
    if n < 11:
        raise ValueError(f"{n} jobs: a tail percentile needs at least 11")
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


# -- provenance ----------------------------------------------------------------------


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def program_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "defcolor").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, docs) -> dict:
    return {
        "git_sha": git_sha(),
        "program_sha256": program_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "inputs_sha256": hashlib.sha256(
            "".join(d.sha256 for d in docs).encode()).hexdigest(),
        "documents": [d.provenance() for d in docs],
    }


# -- the two run modes ---------------------------------------------------------------


def run_pair(runner: Runner, baseline: Worker, key: tuple[int, str],
             base_first: bool) -> tuple[JobResult, dict]:
    """One job on the program and on the baseline, back to back."""
    if base_first:
        base = baseline.request(op="job", argvs=runner.argvs(*key, "b"))
    result = runner.run(*key)
    if not base_first:
        base = baseline.request(op="job", argvs=runner.argvs(*key, "b"))
    return result, base


def timed_run(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    with Worker("baseline") as baseline:
        work, builds = build_inputs(name, seed, workdir, baseline)
        # Started after the set-up, so that it does not compete with it.
        with Worker("src") as program:
            runner = Runner(workdir, work.docs, program)
            checker = Checker(work.docs)
            rss_loaded = program.request(op="rss")["peak_rss_mb"]
            # (document, pipeline, program latency, baseline latency)
            samples: list[tuple[int, str, float, float]] = []
            exits: Counter = Counter()
            pass_s: list[float] = []
            base_errors: set[str] = set()
            deadline = time.perf_counter() + seconds
            # Whole passes only, so every run times the same jobs in the same mix,
            # and enough of them for the tail rule.  Each job runs on the program
            # and on the baseline back to back, the order alternating.
            while len(samples) < 11 or time.perf_counter() < deadline:
                start = time.perf_counter()
                for j, key in enumerate(work.schedule):
                    base_first = (j + len(pass_s)) % 2 == 1
                    result, base = run_pair(runner, baseline, key, base_first)
                    if base["error"]:
                        base_errors.add(base["error"])
                    samples.append((*key, result.latency, base["latency"]))
                    if result.outputs:
                        exits[f"{key[1]}:{json.loads(result.outputs[0])[0]}"] += 1
                    checker.record(key, result)
                pass_s.append(time.perf_counter() - start)
            rss = program.request(op="rss")["peak_rss_mb"]
    failed = checker.verify()
    problems = [] if builds["deterministic"] else ["setup is not deterministic"]
    problems += [f"baseline job failed: {e}" for e in sorted(base_errors)]
    elements = sum(work.docs[i].elements for i, _, _, _ in samples)
    # Each side's own figures, then each metric as program / baseline x the
    # baseline's nominal figure.
    figures = {}
    for side, col in (("program", 2), ("baseline", 3)):
        lats = [s[col] for s in samples]
        smooth = key_means(samples, col)
        figures[side] = {"elements_per_s": elements / sum(lats),
                         "job_s_p50": statistics.median(smooth),
                         "job_s_tail": tail_latency(smooth)[0],
                         "setup_s": statistics.median(builds[side])}
    nominal = BASELINE_NOMINAL[name]
    metrics = {k: (v / figures["baseline"][k] * nominal[k],
                   "1/s" if k == "elements_per_s" else "s")
               for k, v in figures["program"].items()}
    metrics["peak_rss_mb"] = (rss, "MB")
    percentile = tail_latency([s[2] for s in samples])[1]
    return {
        "work": work, "checker": checker, "attempted": len(samples),
        "failed": failed, "problems": problems, "metrics": metrics,
        "details": {
            "pass_s": pass_s, "jobs": len(samples),
            "tail_percentile": percentile,
            "exit_codes": dict(exits),
            "failed_ratio": failed / len(samples),
            "program": figures["program"], "baseline": figures["baseline"],
            "baseline_nominal": nominal, "setup_builds_s": builds,
            "peak_rss_mb_before_jobs": rss_loaded,
            "step_counts": _sum_counts(checker.step_counts.values()),
            "latencies": samples,
        },
    }


def traced_run(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        work = build_workload(name, seed)
    finally:
        setup_tracer.uninstall()
    runner = Runner(workdir, work.docs)
    checker = Checker(work.docs)
    plain_s: list[float] = []
    traced_s: list[float] = []
    passes: list[dict] = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        # Alternate which side goes first, so warm-up does not bias the ratio.
        for traced in (False, True) if len(passes) % 2 == 0 else (True, False):
            tracer = Tracer()
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                for j, key in enumerate(work.schedule):
                    tracer.job = f"job{j}"
                    result = runner.run(*key)
                    attempted += 1
                    checker.record(key, result)
            finally:
                tracer.uninstall()
            (traced_s if traced else plain_s).append(time.perf_counter() - start)
            if traced:
                passes.append(_layer_metrics(tracer, len(work.schedule)))
                spans = tracer.spans
    failed = checker.verify()
    # Times are medians over the traced passes; counts must repeat exactly.
    problems = []
    timed = {k for k, (_, u) in passes[0].items() if u in ("s", "1/s")}
    counts = [{k: v for k, v in u.items() if k not in timed} for u in passes]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes")
    metrics = {k: (statistics.median(u[k][0] for u in passes), passes[0][k][1])
               if k in timed else passes[0][k] for k in passes[0]}
    steps = _sum_counts(checker.step_counts[key] for key in dict.fromkeys(work.schedule)
                        if key in checker.step_counts)
    for kind in ("degree_le1", "adjacent_2", "all_low", "terrible"):
        metrics[f"colorer.steps.{kind}"] = (steps.get(kind, 0), "count")
    metrics["colorer.fallbacks"] = (steps.get("fallbacks", 0), "count")
    setup = setup_tracer.totals()
    metrics["generate.gen_planar_girth5.self_s"] = (
        setup["generate.gen_planar_girth5"].self_s, "s")
    metrics["builder.self_s"] = (setup["builder"].self_s, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(plain_s), "ratio")
    return {
        "work": work, "checker": checker, "attempted": attempted,
        "failed": failed, "problems": problems, "metrics": dict(sorted(metrics.items())),
        "details": {"pass_jobs": len(work.schedule), "untraced_pass_s": plain_s,
                    "traced_pass_s": traced_s,
                    "spans": spans},
    }


def _layer_metrics(tracer, jobs: int) -> dict[str, tuple[float, str]]:
    t = tracer.totals({f"job{j}" for j in range(jobs)})
    c = tracer.counters
    solve = t["coloring.solve_exact"]
    return {
        "cli.main.self_s": (t["cli.main"].self_s, "s"),
        "colorer.color.self_s": (t["colorer.color"].self_s, "s"),
        "coloring.is_valid.calls": (t["coloring.is_valid"].calls, "count"),
        "coloring.is_valid.self_s": (t["coloring.is_valid"].self_s, "s"),
        "coloring.solve_exact.found": (c["solve_exact.found"], "count"),
        "coloring.solve_exact.infeasible": (c["solve_exact.infeasible"], "count"),
        "coloring.solve_exact.nodes": (c["solve_exact.nodes"], "count"),
        "coloring.solve_exact.nodes_per_s": (
            c["solve_exact.nodes"] / solve.total_s if solve.total_s else 0.0, "1/s"),
        "coloring.solve_exact.self_s": (solve.self_s, "s"),
        "coloring.solve_exact.unknown": (c["solve_exact.unknown"], "count"),
        "discharging.apply_rules.self_s": (t["discharging.apply_rules"].self_s, "s"),
        "discharging.audit.self_s": (t["discharging.audit"].self_s, "s"),
        "discharging.classify_faces.calls_per_job": (
            t["discharging.classify_faces"].calls / jobs, "calls/job"),
        "discharging.classify_faces.self_s": (
            t["discharging.classify_faces"].self_s, "s"),
        "discharging.csv.self_s": (t["discharging.csv"].self_s, "s"),
        "discharging.sponsor_instances.self_s": (
            t["discharging.sponsor_instances"].self_s, "s"),
        "discharging.transfers": (c["transfers"], "count"),
        "embedding.build.calls": (t["embedding.build"].calls, "count"),
        "embedding.build.self_s": (t["embedding.build"].self_s, "s"),
        "embedding.girth.calls_per_job": (t["embedding.girth"].calls / jobs, "calls/job"),
        "embedding.girth.self_s": (t["embedding.girth"].self_s, "s"),
        "embedding.induced_embedding.calls": (
            t["embedding.induced_embedding"].calls, "count"),
        "graphio.parse_coloring.self_s": (t["graphio.parse_coloring"].self_s, "s"),
        "graphio.parse_graph.calls_per_job": (
            t["graphio.parse_graph"].calls / jobs, "calls/job"),
        "graphio.parse_graph.self_s": (t["graphio.parse_graph"].self_s, "s"),
        "graphio.serialize_coloring.self_s": (
            t["graphio.serialize_coloring"].self_s, "s"),
    }


def _sum_counts(dicts) -> dict[str, int]:
    total: Counter = Counter()
    for d in dicts:
        total.update(d)
    return dict(total)


# -- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        inputs.load_package()
    except ImportError as exc:
        print(f"error: cannot load the package under test: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        mode = traced_run if args.trace else timed_run
        res = mode(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    work, checker = res["work"], res["checker"]
    bad = {f"{work.docs[i].name}/{p}": msgs
           for (i, p), msgs in checker.problems.items() if msgs}
    correct = res["failed"] == 0 and not bad and not res["problems"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = res["details"].pop("spans", None)
    outputs_sha256, covered = checker.digest(work.schedule)
    report = {
        "workload": args.workload, "mode": "traced" if args.trace else "timed",
        "seconds": args.seconds, "provenance": provenance(args.seed, work.docs),
        "outputs_sha256": outputs_sha256,
        "outputs_jobs": covered,
        "checks": {"correct": correct, "failed_jobs": res["failed"],
                   "attempted_jobs": res["attempted"], "problems": bad,
                   "run_problems": res["problems"]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
        "details": res["details"],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    prov = report["provenance"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'} run of {args.seconds:g} s")
    print(f"program git {prov['git_sha']} src {prov['program_sha256'][:16]}, "
          f"python {prov['python']}, nproc {prov['nproc']}")
    print(f"inputs: {len(work.docs)} documents, sha256 {prov['inputs_sha256'][:16]}")
    for d in prov["documents"][:8]:
        print(f"  {d['name']}: |V| {d['V']} |E| {d['E']} |F| {d['F']} "
              f"genus {d['genus']} t {d['t']} sha256 {d['sha256'][:16]}")
    for k, (v, u) in res["metrics"].items():
        print(f"  {k} = {v:.6g} {u}")
    if args.trace:
        job_layers = {k: v for k, (v, u) in res["metrics"].items()
                      if k.endswith(".self_s") and k.split(".")[0] not in SETUP_LAYERS}
        ranked = sorted(job_layers, key=job_layers.get, reverse=True)[:3]
        total = sum(job_layers.values())
        print("  dominant layers: " + ", ".join(
            f"{k} {job_layers[k] / total:.0%}" for k in ranked))
    else:
        det = res["details"]
        print(f"  job_s_tail is p{det['tail_percentile']:.2f} of {det['jobs']} jobs "
              f"in {len(det['pass_s'])} passes; failed_ratio = {det['failed_ratio']:.6g}")
        for side in ("program", "baseline"):
            print(f"  {side} figures in this run: " + ", ".join(
                f"{k} {v:.6g}" for k, v in det[side].items()))
    print(f"checks: {'pass' if correct else 'FAIL'} ({res['failed']} of "
          f"{res['attempted']} jobs failed); outputs sha256 "
          f"{outputs_sha256[:16]} over {covered} of "
          f"{len(dict.fromkeys(work.schedule))} jobs")
    for where, msgs in list(bad.items())[:10]:
        print(f"  {where}: {'; '.join(msgs)}")
    for msg in res["problems"]:
        print(f"  {msg}")
    print(f"report: {(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
