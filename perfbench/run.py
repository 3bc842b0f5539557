#!/usr/bin/env python3
"""Benchmark of the toric_ends library, end to end and per layer.

    python3 perfbench/run.py --workload {census,deep,family} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree; the library is imported from ./src and
nothing needs to be installed.  One process, one client, closed loop: each
job is sent only after the previous one returned.  A job is timed from its
input text to its canonical output text (json.loads -> run_command ->
json.dumps), exactly as one entry of `toric-ends run` answers it.

--trace 0 reports the end-to-end metrics: the in-process closed loop over
the batch, repeated whole until --seconds of it have passed (`jobs_per_s`,
`job_p50_ms`, `job_p90_ms`, `ok_ratio`), and, spread between its passes,
cold starts (`setup_s`) and the batch as one `toric-ends run` process
(`cold_run_s`, `peak_rss_mb`).  --trace 1 alternates untraced and traced
passes for --seconds and reports per-layer self times and work counts; see
tracing.py.  design.json records why each workload and metric exists.

Every time is scaled to a reference speed, because the machine's speed
drifts (reference.py).  Every output is checked (checks.py) and the cold run
must answer byte for byte what the in-process loop answered.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are a readable report with the sha256 of the batch's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

from checks import check_job
from reference import REFERENCE_S, reference_time
from tracing import END, LAYER, LAYERS, NAME, START, Tracer, self_times
from workloads import WORKLOADS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

JOB_BUDGET_S = 20.0        # one job's wall budget; an overrun fails the job
COLD_RUN_TIMEOUT_S = 30.0  # one `python -m toric_ends` process
COLD_RUNS = 7              # cold_run_s is their median
RUN_DEADLINE_S = 120.0     # no job starts later than this into the run
SETUP_REPEATS = 11         # cold starts per run; setup_s is their median
DEFAULT_OPTIONS = {"horizon": 64}
STREAM_COMMANDS = ("cf-path", "cf-blocks")
TRIVIAL_JOB = ("count", '{"lengths": [2]}', '{"count":2}\n')

# a cold `toric-ends run` process; see reference.cold_main
COLD_RUN_MAIN = "import reference; reference.cold_main()"


class JobBudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobBudgetExceeded()


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def load_library():
    """Import toric_ends from this tree's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "toric_ends", "__init__.py")):
        sys.exit(f"perfbench: no library source at {SRC}")
    sys.path.insert(0, SRC)
    import toric_ends.cli
    import toric_ends.errors
    if not os.path.abspath(toric_ends.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: toric_ends was imported from {toric_ends.__file__}, not from {SRC}")
    return toric_ends


def child_env(*paths):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((SRC,) + paths)
    return env


# ---------------------------------------------------------------------------
# one job


class Runner:
    """Executes jobs in process, each from input text to canonical output."""

    def __init__(self, lib):
        self.lib = lib
        self.cli = lib.cli
        self.errors = lib.errors
        self.options = dict(DEFAULT_OPTIONS, max_family=lib.cli.DEFAULT_MAX_FAMILY)
        self.tracer = None

    def _codec(self, name, fn, arg):
        if self.tracer is None:
            return fn(arg)
        return self.tracer.codec(name, fn, arg)

    def _answer(self, compute) -> dict:
        try:
            return {"status": "ok", "output": compute()}
        except self.errors.SchemaError as exc:
            return {"status": "malformed", "error": str(exc)}
        except self.errors.ToricEndError as exc:
            return {"status": "violation", "error": str(exc)}

    def cli_job(self, text: str) -> str:
        body = self._codec("cli.parse", json.loads, text)
        # looked up on the module at call time, so the traced wrapper is used
        entry = self._answer(lambda: self.cli.run_command(body["command"], body["input"], dict(self.options)))
        return self._codec("cli.emit", canonical, entry)

    def stream_job(self, text: str) -> str:
        """A coefficient-stream twin: the same walk through the library API."""
        body = self._codec("cli.parse", json.loads, text)
        farey, blocks = self.lib.farey, self.lib.blocks

        def compute():
            t = body["target"]
            target = farey.quadratic_cf_target(farey.QuadraticTarget.of(t["a"], t["b"], t["c"], t["d"]).value)
            start = farey.parse_slope(body["start"])
            if "n" in body:
                path = farey.farey_sequence(start, target, body["n"])
                return {"vertices": [str(v) for v in path.prefix(body["n"])]}
            decomp = blocks.decompose(farey.FareyPath(start, target))
            return {"blocks": [self.cli.block_doc(b) for b in decomp.blocks_up_to(body["count"])],
                    "complete": decomp.finished}

        return self._codec("cli.emit", canonical, self._answer(compute))

    def run(self, job, text):
        """(status, output text or None, seconds).  Status is the answer's
        status, or "crash" / "budget" when the job produced no answer."""
        fn = self.stream_job if job["command"] in STREAM_COMMANDS else self.cli_job
        signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
        start = perf_counter()
        try:
            out = fn(text) if self.tracer is None else self.tracer.root(job["id"], fn, text)
            elapsed = perf_counter() - start
        except JobBudgetExceeded:
            return "budget", None, perf_counter() - start
        except Exception as exc:  # a crash is a failed job, not a failed run
            return "crash", repr(exc), perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return json.loads(out)["status"], out, elapsed


def job_text(job) -> str:
    """The job as the program receives it: a `toric-ends run` batch entry, or
    the twin's input document."""
    if job["command"] in STREAM_COMMANDS:
        return canonical(job["input"])
    return canonical({"command": job["command"], "input": job["input"]})


# ---------------------------------------------------------------------------
# passes


class Ledger:
    """Attempts, failures and first answers of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.first: dict = {}          # job id -> (status, output text)
        self.messages: list = []

    def fail(self, job, message, times=1):
        self.failed += times
        if len(self.messages) < 20:
            self.messages.append(f"job {job['id']} ({job['command']}): {message}")

    def record(self, job, status, out):
        self.attempted += 1
        self.ok += status == "ok"
        first = self.first.setdefault(job["id"], (status, out))
        if status in ("crash", "budget"):
            self.fail(job, f"{status} {out or ''}".strip())
        elif first != (status, out):
            self.fail(job, "answer differs between passes")


def run_pass(runner, jobs, texts, ledger, deadline):
    """One closed-loop pass; returns (wall seconds, per-job seconds)."""
    times = {}
    start = perf_counter()
    for job in jobs:
        if perf_counter() > deadline:
            ledger.attempted += 1
            ledger.fail(job, "not started before the run deadline")
            continue
        status, out, elapsed = runner.run(job, texts[job["id"]])
        ledger.record(job, status, out)
        times[job["id"]] = elapsed
    return perf_counter() - start, times


def check_outputs(jobs, ledger, lib, executions):
    """Run the output checks on the first answers; a failed check counts
    once for every execution of the job."""
    parsed = {}
    for job in jobs:
        status, out = ledger.first.get(job["id"], ("crash", None))
        if status not in ("crash", "budget") and out is not None:
            parsed[job["id"]] = json.loads(out).get("output")
    paths = {}
    for job in jobs:
        out = parsed.get(job["id"])
        if job["command"] == "path" and out is not None:
            key = ("path", (job["input"]["start"], repr(job["input"]["target"])))
            if len(out["vertices"]) > len(paths.get(key, ())):
                paths[key] = out["vertices"]
    lookup = {**parsed, **paths}
    for job in jobs:
        status, out = ledger.first.get(job["id"], ("crash", None))
        if status in ("crash", "budget"):
            continue
        try:
            message = check_job(job, status, parsed.get(job["id"]), lib.cli.parse_invariant_document, lookup)
        except Exception as exc:  # an output the checks cannot even read
            message = f"output check raised {exc!r}"
        if message:
            ledger.fail(job, message, executions[job["id"]])


def outputs_digest(jobs, ledger) -> str:
    h = hashlib.sha256()
    for job in jobs:
        status, out = ledger.first.get(job["id"], ("missing", None))
        h.update(f"{job['id']}\t{status}\t{out}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# processes


class ColdRuns:
    """The workload's CLI jobs as one `toric-ends run` process.  Its time is
    taken inside the process, from running the package as __main__ (import,
    stdin, every job, stdout) to its end, and scaled by the reference time
    measured in the same process before and after; interpreter start-up is
    what setup_s measures."""

    def __init__(self, jobs, ledger):
        self.jobs = [j for j in jobs if j["command"] not in STREAM_COMMANDS]
        self.batch = ("[" + ",".join(job_text(j) for j in self.jobs) + "]").encode()
        self.ledger = ledger
        self.times: list = []
        self.peak_kib: list = []
        self.stdout = None

    def _fail(self, message, times):
        self.ledger.fail({"id": "-", "command": "run"}, message, times)

    def run(self):
        self.ledger.attempted += len(self.jobs)
        try:
            proc = subprocess.run([sys.executable, "-c", COLD_RUN_MAIN, "run"], input=self.batch,
                                  capture_output=True, env=child_env(HERE), cwd=ROOT, timeout=COLD_RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._fail("cold run exceeded its budget", len(self.jobs))
            return
        try:
            fields = dict(f.split("=") for f in proc.stderr.decode().rsplit("cold_run ", 1)[1].split())
            self.times.append(float(fields["elapsed_s"]) * REFERENCE_S / float(fields["reference_s"]))
            self.peak_kib.append(int(fields["peak_rss_kib"]))
        except (IndexError, KeyError, ValueError):
            self._fail(f"cold run reported no timing: {proc.stderr[-300:]!r}", len(self.jobs))
        if self.stdout is None:
            self.stdout = proc.stdout
        elif proc.stdout != self.stdout:
            self._fail("cold runs of one batch answered differently", len(self.jobs))

    def check(self):
        """Every cold-run answer must equal the in-process first answer, and
        the whole stdout must be the canonical rendering of the list."""
        try:
            answers = json.loads(self.stdout)
        except (TypeError, ValueError):
            answers = None
        if not isinstance(answers, list) or len(answers) != len(self.jobs):
            self._fail(f"cold run gave no full answer list: {(self.stdout or b'')[-300:]!r}", len(self.jobs))
            return
        answers = [canonical(a) for a in answers]
        for job, answer in zip(self.jobs, answers):
            if self.ledger.first.get(job["id"], (None, None))[1] != answer:
                self.ledger.fail(job, "cold run answer differs from the in-process answer")
        if self.stdout.decode() != "[" + ",".join(answers) + "]\n":
            self._fail("cold run output is not in canonical form", 1)


def cold_start(ledger) -> float:
    """Wall time of a cold `python -m toric_ends` answering one trivial job."""
    command, text, expected = TRIVIAL_JOB
    ledger.attempted += 1
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "toric_ends", command], input=text.encode(),
                          capture_output=True, env=child_env(), cwd=ROOT, timeout=COLD_RUN_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0 or proc.stdout.decode() != expected:
        ledger.fail({"id": "-", "command": command}, f"cold start answered {proc.stdout!r}")
    return elapsed


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def source_sha():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "toric_ends"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def doubling_ratio(jobs, times_by_pass, layer):
    """Median over ladder rungs of t(2n)/t(n), each t the job's median time."""
    rungs: dict = {}
    for job in jobs:
        ladder = job.get("ladder")
        if ladder and ladder[0] == layer:
            samples = [times[job["id"]] for times in times_by_pass if job["id"] in times]
            rungs.setdefault(ladder[1], []).append((ladder[2], statistics.median(samples)))
    ratios = []
    for points in rungs.values():
        points.sort()
        ratios += [t2 / t1 for (n1, t1), (n2, t2) in zip(points, points[1:]) if n2 == 2 * n1]
    return statistics.median(ratios) if ratios else 0.0


def end_to_end(jobs, runner, seconds, ledger, started):
    """Whole passes of the closed loop until `seconds` of them have passed,
    with the cold runs and cold starts spread evenly between the passes.
    Each job's latency is its median over the passes, the in-process metrics
    are taken over those per-job medians, the process metrics are medians of
    samples spread over the run, and every time is scaled to reference speed
    (see reference.py): in-process times by the reference time around their
    pass, cold runs by their own, cold starts by the run's median."""
    texts = {j["id"]: job_text(j) for j in jobs}
    deadline = started + RUN_DEADLINE_S
    cold = ColdRuns(jobs, ledger)
    cold_start(ledger)  # unmeasured: writes the bytecode caches
    reference_time()    # unmeasured: warms the reference kernel
    passes, setup, references, wall = [], [], [reference_time()], 0.0
    while True:
        pass_wall, times = run_pass(runner, jobs, texts, ledger, deadline)
        references.append(reference_time())
        factor = REFERENCE_S / ((references[-2] + references[-1]) / 2)  # timed around the pass
        wall += pass_wall
        passes.append({i: t * factor for i, t in times.items()})
        while (len(cold.times) < COLD_RUNS and wall >= len(cold.times) * seconds / COLD_RUNS
               and perf_counter() < deadline):
            cold.run()
        while (len(setup) < SETUP_REPEATS and wall >= len(setup) * seconds / SETUP_REPEATS
               and perf_counter() < deadline):
            setup.append(cold_start(ledger))
        if wall >= seconds or perf_counter() >= deadline:
            break
    factor = REFERENCE_S / statistics.median(references)
    cold.check()
    check_outputs(jobs, ledger, runner.lib, Counter(i for times in passes for i in times))
    latencies = [statistics.median(times[j["id"]] for times in passes if j["id"] in times)
                 for j in jobs if any(j["id"] in times for times in passes)]
    metrics = {
        "setup_s": metric(statistics.median(setup) * factor, "s"),
        "cold_run_s": metric(statistics.median(cold.times) if cold.times else 0.0, "s"),
        "jobs_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "job_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "job_p90_ms": metric(statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": metric(statistics.median(cold.peak_kib) / 1024 if cold.peak_kib else 0.0, "MiB"),
        "ok_ratio": metric(ledger.ok / sum(len(times) for times in passes), "ratio"),
    }
    notes = {"speed_factor": factor, "passes": len(passes), "latency_jobs": len(latencies),
             "latency_samples": sum(len(times) for times in passes),
             "setup_samples": len(setup), "cold_runs": len(cold.times),
             "cold_run_jobs": sum(j["command"] not in STREAM_COMMANDS for j in jobs)}
    return metrics, notes


def per_layer(jobs, runner, seconds, ledger, started):
    """Untraced and traced passes in turn until `seconds` have passed.  The
    untraced passes give the doubling ratios and the base of the tracing
    overhead; each traced pass gives one set of spans and counts."""
    texts = {j["id"]: job_text(j) for j in jobs}
    deadline = started + RUN_DEADLINE_S
    plain_walls, plain_times, traced = [], [], []
    executions = Counter()
    while not traced or (sum(plain_walls) + sum(t["wall"] for t in traced) < seconds
                         and perf_counter() < deadline):
        wall, times = run_pass(runner, jobs, texts, ledger, deadline)
        plain_walls.append(wall)
        plain_times.append(times)
        executions.update(times)
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        try:
            wall, times = run_pass(runner, jobs, texts, ledger, deadline)
        finally:
            runner.tracer = None
            tracer.uninstall()
        executions.update(times)
        layer_self, per_job = self_times(tracer.spans)
        for job_id, (root, layers, uncovered) in per_job.items():
            if abs(root - layers - uncovered) > 1e-9 + 1e-9 * root:
                ledger.fail({"id": job_id, "command": "trace"}, "layer self times do not add up to the job's wall time")
        traced.append({
            "wall": wall, "self": layer_self, "uncovered": sum(v[2] for v in per_job.values()),
            "entries": Counter(s[LAYER] for s in tracer.spans if s[LAYER] is not None),
            "calls": tracer.calls, "results": tracer.results,
            "bits": tracer.max_operand_bits, "targets": len(tracer.decomposed_targets),
            "codec": {name: sum(s[END] - s[START] for s in tracer.spans if s[NAME] == name)
                      for name in ("cli.parse", "cli.emit")},
        })
    check_outputs(jobs, ledger, runner.lib, executions)
    first = traced[0]
    for other in traced[1:]:
        if (other["calls"], other["results"]) != (first["calls"], first["results"]):
            ledger.fail({"id": "-", "command": "trace"}, "work counts differ between traced passes")

    calls, results = first["calls"], first["results"]

    def self_s(layer):
        return statistics.median(t["self"][layer] for t in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    vertices = calls["farey.next_toward"]
    blocks_emitted = calls["blocks.witness_for_edge"]
    metrics = {f"{layer}.self_s": metric(self_s(layer), "s") for layer in LAYERS}
    metrics.update({
        "farey.vertices": metric(vertices, "count"),
        "farey.us_per_vertex": metric(ratio(self_s("farey") * 1e6, vertices), "us"),
        "farey.mobius_calls": metric(calls["farey.QuadraticValue.mobius"] + calls["farey.CFStream.mobius"]
                                     + calls["farey.CFStream.mobius_floor"], "count"),
        "farey.floor_calls": metric(calls["farey.QuadraticValue.floor"] + calls["farey.CFStream.mobius_floor"],
                                    "count"),
        "farey.max_operand_bits": metric(first["bits"], "bits"),
        "farey.doubling_ratio": metric(doubling_ratio(jobs, plain_times, "farey"), "ratio"),
        "blocks.doubling_ratio": metric(doubling_ratio(jobs, plain_times, "blocks"), "ratio"),
        "blocks.blocks_emitted": metric(blocks_emitted, "count"),
        "blocks.vertices_per_block": metric(ratio(vertices, blocks_emitted), "ratio"),
        "invariants.calls": metric(first["entries"]["invariants"], "count"),
        "invariants.undecided_ratio": metric(
            ratio(results[("invariants.equivalent", "UndecidableAtHorizonError")], calls["invariants.equivalent"]),
            "ratio"),
        "ends.classify_calls": metric(calls["ends.classify"], "count"),
        "ends.unknown_ratio": metric(
            ratio(results[("ends.extension_obstruction", "Unknown")], calls["ends.extension_obstruction"]), "ratio"),
        "ends.decompositions_per_target": metric(ratio(calls["blocks.decompose"], first["targets"]), "ratio"),
        "reduce.calls": metric(first["entries"]["reduce"], "count"),
        "cli.parse_s": metric(statistics.median(t["codec"]["cli.parse"] for t in traced), "s"),
        "cli.emit_s": metric(statistics.median(t["codec"]["cli.emit"] for t in traced), "s"),
        "cli.bytes_in": metric(sum(len(texts[j["id"]].encode()) for j in jobs), "bytes"),
        "cli.bytes_out": metric(sum(len((ledger.first[j["id"]][1] or "").encode()) for j in jobs), "bytes"),
        "trace.uncovered_s": metric(statistics.median(t["uncovered"] for t in traced), "s"),
        "trace.overhead_ratio": metric(statistics.median(t["wall"] for t in traced)
                                       / statistics.median(plain_walls), "ratio"),
    })
    notes = {"untraced_passes": len(plain_walls), "traced_passes": len(traced),
             "spans_per_pass": sum(first["entries"].values()) + len(jobs)}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    lib = load_library()
    jobs = generate(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)
    ledger = Ledger()
    runner = Runner(lib)
    measure = per_layer if args.trace else end_to_end
    metrics, notes = measure(jobs, runner, args.seconds, ledger, started)

    mix = Counter(f"{j['command']}:{j['kind']}" for j in jobs)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "outputs_sha256": outputs_digest(jobs, ledger),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "source_sha256": source_sha(),
        "jobs": len(jobs), "job_mix": dict(sorted(mix.items())),
        "deliberate_violations": sum(j["expect"] == "violation" for j in jobs),
        "error_ratio": ledger.failed / max(1, ledger.attempted),
        "failures": ledger.messages, **notes,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(jobs)} jobs, "
          f"{ledger.attempted} attempted, {ledger.failed} failed")
    for name, m in metrics.items():
        print(f"  {name:32} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_ratio':32} {report['error_ratio']:>16.6g} ratio")
    print("  " + ", ".join(f"{k}={v}" for k, v in notes.items()))
    print("report " + canonical(report))
    print(canonical({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                     "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
