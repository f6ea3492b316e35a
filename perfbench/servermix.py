"""``server-mix``: ``repro serve`` under a closed and an open loop.

The server runs as a subprocess with its default settings (2 worker
threads, queue depth 16, synthesis cache off) on an ephemeral port.  One
client process drives it with at most two threads, each with its own
HTTP connection:

- phase (a), closed loop: two clients, each submitting its next job only
  after it saw the previous one finish; gives ``server_jobs_per_s``;
- phase (b), open loop: one generator thread submitting at
  ``OPEN_LOOP_RATE`` jobs/s, one poller thread; every job is timed from
  when it was *due* to when the client saw it finish, so a stalled
  generator still shows as latency.

Clients poll ``GET /jobs/<id>`` every ``POLL_INTERVAL_S``.  Jobs are an
equal-share mix of synthesize / simulate / codegen / analyze / explore
over the stratified zoo corpus: each cycle is a seeded permutation of
every (model, kind) pair.  Per-layer numbers come from the job
documents' server-side timestamps.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core import flow
from repro.server.executor import execute
from repro.server.jobs import JobSpec
from repro.zoo import stimuli_for

import inputs
from common import (
    CHUNKS,
    ROOT,
    Outcome,
    child_env,
    combined,
    latency_summary,
    SETUP_REPS,
    peak_rss_mb,
    perf,
    sha,
)

KINDS = ("synthesize", "simulate", "codegen", "analyze", "explore")
PER_STRATUM = 1
#: Open-loop arrival rate.  The closed loop measured 50-73 jobs/s on the
#: 2-core host this benchmark was built on, depending on how fast the
#: host ran; 36 jobs/s (half of the fast figure) overloaded it in its slow
#: spells, so the rate is about a third of the typical capacity.
OPEN_LOOP_RATE = 20.0
POLL_INTERVAL_S = 0.005
#: Both loops do a fixed amount of work, so on every run the server has
#: handled the same jobs before each chunk (it slows down as its job table
#: grows).  The closed loop gets a quarter of the run and sends this many
#: jobs per second of it; the open loop, at ``OPEN_LOOP_RATE``, the rest.
CLOSED_SHARE = 0.25
CLOSED_LOOP_NOMINAL_RATE = 60.0
#: Explore jobs target a 2-CPU platform (``max_cpus``), like the host.
EXPLORE_OPTIONS = {"max_cpus": 2}
#: The open loop sends two cycles of the 115 (model, kind) jobs in a 15 s
#: run; 23 of them lie beyond p90.
TAIL_PCT = 90.0
#: How long phase (b) waits for stragglers after the last arrival.
DRAIN_LIMIT_S = 30.0
READY_TIMEOUT_S = 60.0
TERMINAL = {"done", "failed", "cancelled", "timed_out"}


def server_cpu() -> Optional[int]:
    """The one CPU the server and its load generator share.

    On the 2-core host this benchmark was built on, runs that kept both
    cores busy (server on one, clients on the other, or unpinned) differed
    by up to 2x in throughput and latency from run to run, as the
    hypervisor took CPU time away (steal); on one shared CPU the same
    seed's runs stayed within ~10%.  The cost: a change that spreads the
    server over processes cannot show its gain here.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0] if len(cpus) > 1 else None


def steal_seconds() -> float:
    """Host-wide CPU time the hypervisor withheld so far (``/proc/stat``)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class ServerProcess:
    """``python -m repro.cli serve --port 0``, always reaped on exit."""

    def __init__(self) -> None:
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> "ServerProcess":
        # The child inherits this thread's CPU affinity.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=child_env(),
            cwd=str(ROOT),
            text=True,
        )
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(READY_TIMEOUT_S):
                raise RuntimeError("server did not report its port in time")
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"unexpected server banner: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        return self

    def stop(self) -> None:
        """SIGTERM (the server drains), then SIGKILL if it lingers."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


class Client:
    """One HTTP connection (re-opened per request: the server speaks 1.0)."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError):
            self.conn.close()
            raise

    def close(self) -> None:
        self.conn.close()


@dataclass
class Job:
    key: str
    kind: str
    body: bytes
    due: float = 0.0
    sent: float = 0.0
    seen: float = 0.0
    job_id: str = ""
    polls: int = 0
    status: str = "pending"  # pending|done|failed|rejected|error
    doc: Optional[dict] = None


# -- inputs -------------------------------------------------------------------


def job_specs(seed: int, per_stratum: int = PER_STRATUM) -> Dict[str, dict]:
    """``"<model>/<kind>" -> spec dict`` over the stratified corpus."""
    specs = {}
    for item in inputs.zoo_corpus(seed, per_stratum):
        result = flow.synthesize(item.model, auto_allocate=item.auto_allocate)
        stimuli = stimuli_for(item.params, inputs.root_inports(result.caam))
        options = {
            "synthesize": {"auto_allocate": item.auto_allocate, "name": item.name},
            "simulate": {"steps": item.params.steps, "stimuli": stimuli},
            "codegen": {"languages": ["c", "java"], "auto_allocate": item.auto_allocate},
            "analyze": {},
            "explore": EXPLORE_OPTIONS,
        }
        for kind in KINDS:
            spec = JobSpec(kind=kind, model_xmi=item.xmi, options=options[kind])
            specs[f"{item.name}/{kind}"] = spec.validate().to_dict()
    return specs


def job_stream(specs: Dict[str, dict], rng: random.Random) -> Iterator[Job]:
    """Seeded permutations of every (model, kind) pair, cycle after cycle."""
    keys = sorted(specs)
    bodies = {key: json.dumps(specs[key]).encode("utf-8") for key in keys}
    while True:
        order = keys[:]
        rng.shuffle(order)
        for key in order:
            yield Job(key=key, kind=key.rsplit("/", 1)[1], body=bodies[key])


# -- client loops -------------------------------------------------------------


def _submit(client: Client, job: Job) -> bool:
    job.sent = perf()
    status, data = client.call("POST", "/jobs", job.body)
    if status == 429:
        job.status = "rejected"
        return False
    if status != 201:
        job.status = "error"
        job.doc = {"error": data.decode("utf-8", "replace")[:200]}
        return False
    job.job_id = json.loads(data)["id"]
    return True


def _poll(client: Client, job: Job) -> bool:
    """One status poll; True once the job reached a terminal state."""
    status, data = client.call("GET", f"/jobs/{job.job_id}")
    job.polls += 1
    if status != 200:
        job.status = "error"
        return True
    doc = json.loads(data)
    if doc["state"] not in TERMINAL:
        return False
    job.seen = perf()
    job.doc = doc
    job.status = "done" if doc["state"] == "done" else "failed"
    return True


def _join(threads, limit: float) -> None:
    """Start ``threads`` and wait up to ``limit`` seconds for them."""
    for thread in threads:
        thread.start()
    give_up = perf() + limit
    for thread in threads:
        thread.join(max(0.0, give_up - perf()))


def closed_loop(port: int, jobs: Iterator[Job], count: int) -> Tuple[List[Job], float]:
    """Two clients, one job in flight each, until ``count`` jobs were
    sent; ``(jobs, phase seconds)``."""
    lock = threading.Lock()
    finished: List[Job] = []
    errors: List[BaseException] = []
    budget = iter(range(count))
    start = perf()

    def client_thread() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    if next(budget, None) is None:
                        return
                    job = next(jobs)
                job.due = perf()
                if _submit(client, job):
                    while True:
                        time.sleep(POLL_INTERVAL_S)
                        if _poll(client, job):
                            break
                with lock:
                    finished.append(job)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=client_thread) for _ in range(2)]
    _join(threads, count / 10.0 + DRAIN_LIMIT_S + 60)
    if errors or any(t.is_alive() for t in threads):
        raise RuntimeError(f"closed-loop client failed: {errors[:1]}")
    return finished, perf() - start


def open_loop(port: int, jobs: Iterator[Job], count: int, rate: float) -> List[Job]:
    """``count`` arrivals at ``rate``/s; one generator, one poller."""
    lock = threading.Lock()
    outstanding: List[Job] = []
    submitted: List[Job] = []
    errors: List[BaseException] = []
    generating = threading.Event()
    generating.set()
    start = perf()
    seconds = count / rate

    def generator() -> None:
        client = Client(port)
        try:
            for number in range(count):
                job = next(jobs)
                job.due = start + number / rate
                delay = job.due - perf()
                if delay > 0:
                    time.sleep(delay)
                accepted = _submit(client, job)
                with lock:
                    submitted.append(job)
                    if accepted:
                        outstanding.append(job)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            generating.clear()
            client.close()

    def poller() -> None:
        client = Client(port)
        give_up = start + seconds + DRAIN_LIMIT_S
        try:
            tick = perf()
            while generating.is_set() or outstanding:
                if perf() > give_up:
                    break
                with lock:
                    snapshot = list(outstanding)
                for job in snapshot:
                    if _poll(client, job):
                        with lock:
                            outstanding.remove(job)
                tick += POLL_INTERVAL_S
                delay = tick - perf()
                if delay > 0:
                    time.sleep(delay)
                else:
                    tick = perf()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=generator), threading.Thread(target=poller)]
    _join(threads, seconds + DRAIN_LIMIT_S + 60)
    if errors or any(t.is_alive() for t in threads):
        raise RuntimeError(f"open-loop client failed: {errors[:1]}")
    for job in outstanding:
        job.status = "error"
        job.doc = {"error": "not finished within the drain limit"}
    return submitted


# -- checks and metrics -------------------------------------------------------


def expected_artifacts(specs: Dict[str, dict], keys) -> Dict[str, str]:
    """What the library produces for each spec (digest of the artifact)."""
    return {key: sha(execute(JobSpec.from_dict(specs[key])).artifact_text) for key in keys}


def check_jobs(port: int, jobs: List[Job], specs, outcome: Outcome) -> None:
    """Every job finished ``done`` and its artifact equals the library's."""
    expected = expected_artifacts(specs, sorted({job.key for job in jobs if job.status == "done"}))
    client = Client(port)
    try:
        for job in jobs:
            if job.status != "done":
                detail = (job.doc or {}).get("error") or ""
                outcome.problem(f"{job.key}: {job.status} {detail}".strip())
                continue
            status, data = client.call("GET", f"/jobs/{job.job_id}/artifact")
            if status != 200 or sha(data.decode("utf-8")) != expected[job.key]:
                outcome.problem(f"{job.key}: server artifact differs from the library's")
    finally:
        client.close()


class Phases:
    """The closed and the open loop, as ``CHUNKS`` rounds of one closed
    chunk and one open chunk each.

    Between chunks the server is idle, and host speed is sampled then
    (sampling under load would measure the load); the phases are scaled by
    the median sample.
    """

    def __init__(self, port: int, specs: Dict[str, dict], rng: random.Random,
                 seconds: float, outcome: Outcome):
        cal = outcome.calibration
        steal = steal_seconds()
        cycle = len(specs)
        closed_s = seconds * CLOSED_SHARE
        closed_cycles = max(1, round(closed_s * CLOSED_LOOP_NOMINAL_RATE / cycle))
        open_cycles = max(1, round((seconds - closed_s) * OPEN_LOOP_RATE / cycle))
        # Each loop sends whole cycles, so every run covers the same jobs.
        closed_jobs = job_stream(specs, rng)
        open_jobs = job_stream(specs, rng)
        self.closed: List[Job] = []
        self.opened: List[Job] = []
        busy_s = 0.0
        first = len(cal.samples)
        cal.sample()
        for chunk in range(CHUNKS):
            finished, chunk_s = closed_loop(
                port, closed_jobs, _share(closed_cycles * cycle, chunk)
            )
            cal.sample()
            self.closed += finished
            busy_s += chunk_s
            self.opened += open_loop(
                port, open_jobs, _share(open_cycles * cycle, chunk), OPEN_LOOP_RATE
            )
            cal.sample()
        outcome.attempted += len(self.closed) + len(self.opened)
        outcome.context["steal_s"] = outcome.context.get("steal_s", 0.0) + steal_seconds() - steal
        # The closed loop keeps the server busy, so its rate follows the
        # host's speed: it is scaled by the median idle sample.  Of an
        # open-loop latency only the server-side part (submitted to
        # finished) is scaled; the poll and HTTP delay around it is not
        # CPU-bound (scaling whole latencies widened their spread).
        self.factor = cal.factor_of(cal.samples[first:])
        self.raw_jobs_per_s = sum(1 for j in self.closed if j.status == "done") / busy_s
        self.jobs_per_s = self.raw_jobs_per_s / self.factor
        done = [j for j in self.opened if j.status == "done"]
        self.raw_latencies = [j.seen - j.due for j in done]
        self.latencies = [
            j.seen - j.due + (self.factor - 1.0) * server_seconds(j) for j in done
        ]

    def jobs(self) -> List[Job]:
        return self.closed + self.opened


def _share(total: int, chunk: int) -> int:
    """Chunk ``chunk``'s share of ``total`` jobs split over ``CHUNKS``."""
    return total * (chunk + 1) // CHUNKS - total * chunk // CHUNKS


def server_seconds(job: Job) -> float:
    """Seconds the server held ``job``: submitted to finished."""
    return job.doc["finished_at"] - job.doc["submitted_at"]


def _layers(outcome: Outcome, phases: Phases) -> None:
    """Server layers from the open loop's job documents.  Server-side
    times are scaled like the latencies; client-side ones are not."""
    done = [job for job in phases.opened if job.status == "done"]

    def mean_ms(values, scale: float = 1.0) -> float:
        values = list(values)
        return statistics.fmean(values) * 1e3 * scale if values else 0.0

    factor = phases.factor
    outcome.put(
        "server.queue_wait_ms",
        mean_ms((j.doc["started_at"] - j.doc["submitted_at"] for j in done), factor),
        "ms",
    )
    for kind in KINDS:
        outcome.put(
            f"server.service_ms.{kind}",
            mean_ms(
                (j.doc["finished_at"] - j.doc["started_at"] for j in done if j.kind == kind),
                factor,
            ),
            "ms",
        )
    overhead = mean_ms(j.seen - j.sent - server_seconds(j) for j in done)
    observed = overhead + mean_ms((server_seconds(j) for j in done), factor) + mean_ms(
        j.sent - j.due for j in done
    )
    outcome.put("server.client_overhead_ms", overhead, "ms")
    outcome.put("server.generator_late_ms", mean_ms(j.sent - j.due for j in phases.opened), "ms")
    outcome.put(
        "server.polls_per_job", statistics.fmean(j.polls for j in done) if done else 0.0, "count"
    )
    outcome.put(
        "server.retries", sum(max(0, j.doc.get("attempts", 1) - 1) for j in done), "count"
    )
    outcome.put(
        "server.rejected", sum(1 for j in phases.jobs() if j.status == "rejected"), "count"
    )
    # Between due and seen, what neither the generator's lateness nor the
    # server's own timestamps cover: HTTP transfer and poll delay.
    outcome.put("unattributed_ms", overhead, "ms")
    outcome.put("trace.coverage", (observed - overhead) / observed if observed else 0.0, "share")


def _warm_up(port: int, specs: Dict[str, dict]) -> None:
    """One job of each kind, so lazy imports are done before timing."""
    client = Client(port)
    try:
        for kind in KINDS:
            key = next(k for k in sorted(specs) if k.endswith("/" + kind))
            job = Job(key=key, kind=kind, body=json.dumps(specs[key]).encode("utf-8"))
            if _submit(client, job):
                while not _poll(client, job):
                    time.sleep(POLL_INTERVAL_S)
    finally:
        client.close()


def pinned_digests(seed: int) -> dict:
    specs = job_specs(seed)
    return {"artifacts": combined(expected_artifacts(specs, sorted(specs)))}


def run(seed, seconds, trace, smoke=False) -> Outcome:
    outcome = Outcome()
    cal = outcome.calibration
    outcome.context["open_loop_rate_per_s"] = OPEN_LOOP_RATE
    outcome.context["poll_interval_s"] = POLL_INTERVAL_S
    servers: List[ServerProcess] = []
    cpu = server_cpu()
    home = os.sched_getaffinity(0)
    outcome.context["cpu"] = cpu
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # inherited by the client threads
        raw, starts = [], []
        for _ in range(1 if smoke else SETUP_REPS):
            if servers:
                servers[-1].stop()
            cal.sample()
            starts.append(perf())
            servers.append(ServerProcess())
            servers[-1].start()
            specs = job_specs(seed)
            raw.append(perf() - starts[-1])
        cal.sample()
        scaled = [t * cal.factor(start) for t, start in zip(raw, starts)]
        outcome.put("setup_s", statistics.median(scaled), "s")
        outcome.context["raw_setup_s"] = statistics.median(raw)
        port = servers[-1].port
        outcome.context["server_pids"] = [server.proc.pid for server in servers]
        outcome.context["jobs_per_cycle"] = len(specs)
        _warm_up(port, specs)
        rng = random.Random(f"perfbench/server-mix/{seed}")
        if trace:
            # Untraced and traced halves: the layer numbers are read from
            # job documents that both halves fetch anyway.
            plain = Phases(port, specs, rng, seconds / 2, outcome)
            traced = Phases(port, specs, rng, seconds / 2, outcome)
            _layers(outcome, traced)
            if traced.latencies and plain.latencies:
                outcome.put(
                    "trace.overhead_ms",
                    (statistics.median(traced.latencies) - statistics.median(plain.latencies))
                    * 1e3,
                    "ms",
                )
            every = plain.jobs() + traced.jobs()
        else:
            phases = Phases(port, specs, rng, seconds, outcome)
            outcome.put("throughput_per_s", phases.jobs_per_s, "1/s")
            if phases.latencies:
                summary = latency_summary(phases.latencies, TAIL_PCT)
                outcome.put("p50_ms", summary["p50_ms"], "ms")
                outcome.put("tail_ms", summary["tail_ms"], "ms")
                raw_summary = latency_summary(phases.raw_latencies, TAIL_PCT)
                outcome.context["raw"] = {
                    "throughput_per_s": phases.raw_jobs_per_s,
                    "p50_ms": raw_summary["p50_ms"],
                    "tail_ms": raw_summary["tail_ms"],
                }
                for key in ("tail_pct", "samples", "beyond_tail"):
                    outcome.context[key] = summary[key]
            every = phases.jobs()
        check_jobs(port, every, specs, outcome)
    finally:
        for server in servers:
            server.stop()
        os.sched_setaffinity(0, home)
    # The server is a reaped child by now, so its peak counts here.
    outcome.put("peak_rss_mb", peak_rss_mb(children=True), "MB")
    return outcome
