"""Serving benchmark: one workload, one seed, out-of-process servers.

    python3 perfbench/run.py --workload browse-hot --seed 1 --seconds 16 --trace 0

Launches the real serving processes from the checkout's ``src/`` (one
``python -m repro.api.aio --loops 1``, or three
``python -m repro.cluster_serving.shard`` behind
``python -m repro.cluster_serving``), drives them from this one process
over at most two keep-alive connections, checks the kept answers
against an in-process oracle after the timed phases, and prints one JSON
object as the last line of standard output.  README.md defines every
workload and metric.

``--trace 0`` splits ``--seconds`` over several server launches and
reports the end-to-end metrics.  ``--trace 1`` drives one full-length
launch untraced and one under ``tracer.py``, and reports the per-layer
metrics of the traced launch plus the tracing overhead.

Exit status: 0 when every request succeeded and every checked answer was
correct, 1 otherwise (the result line is still printed), 2 when the
benchmark could not run (no result line).
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import procs
from procs import BenchError

WORKLOADS = ("browse-hot", "explore-cold", "ingest-live", "sharded-cold")
#: server launches a --trace 0 run splits --seconds over: launches of the
#: same code differ in cost per request by a tenth (coefficient of
#: variation), so a run pools five; a sharded launch takes four times as
#: long to start, so sharded-cold pools four to keep a run near 40 s
LIFETIMES = {"browse-hot": 5, "explore-cold": 5, "ingest-live": 5, "sharded-cold": 4}
READ_SHARE = 0.65      # of a launch's seconds; the batch phase gets the rest
BATCH_KEEP_EVERY = 4   # every 4th batch answer is checked by the oracle
COLD_KEEP_EVERY = 8    # every 8th cold answer is checked by the oracle
WARM_COLD = 16         # untimed cold queries before the timed phases
READ_TICK_S = 1.0      # probe interval of the read phase
MIN_TAIL = 1000        # latencies behind p50/p99: >= 10 beyond the p99
BATCH_TICK_S = 0.5     # probe interval of the batch phase

END_TO_END = {
    "setup_s": "s", "rps": "1/s", "p50_ms": "ms", "p99_ms": "ms",
    "cpu_ms_per_req": "ms", "batch_qps": "1/s", "batch_cpu_ms_per_query": "ms",
    "rss_mb": "MB", "success_share": "ratio",
}
PER_LAYER = {
    "api.aio.transport_us": "us",
    "api.app.handle_wire.self_us": "us",
    "api.limits.admit_us": "us",
    "api.protocol.decode_us": "us",
    "api.protocol.page_build_us": "us",
    "api.protocol.encode_us": "us",
    "spell.service.search.self_us": "us",
    "spell.cache.lookup_us": "us",
    "spell.cache.hit_ratio": "ratio",
    "spell.cache.evictions": "count",
    "spell.index.search_us": "us",
    "spell.index.search_batch_us_per_query": "us",
    "spell.service.respond_batch.self_us": "us",
    "spell.index.search_partials_us": "us",
    "spell.partials.merge_us": "us",
    "spell.partials.datasets_per_query": "count",
    "cluster_serving.router.respond.self_us": "us",
    "rpc.fanout_wait_us": "us",
    "data.parse_ms": "ms",
    "spell.catalog.ingest.self_ms": "ms",
    "spell.index.updated_ms": "ms",
    "spell.store.sync_ms": "ms",
    "spell.catalog.resolve_us": "us",
    "spell.index.build_ms": "ms",
    "spell.store.load_ms": "ms",
    "api.ingest.p50_ms": "ms",
    "host.steal_s": "s",
    "host.reference_ms": "ms",
    "client.cpu_ms_per_req": "ms",
    "client.late_ms": "ms",
    "trace.overhead_cpu_ms_per_req": "ms",
}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Window:
    """One probe interval of a phase: wall time, host steal, server CPU and
    the answers that completed in it, plus the host speed of its launch
    (nominal / measured reference job time, below 1 on a slow host)."""

    wall: float
    steal_s: float
    cpu_s: float
    samples: list
    speed: float

    @property
    def unstolen_s(self) -> float:
        return procs.unstolen(self.wall, self.steal_s)

    @property
    def stretch(self) -> float:
        """Wall time per unstolen second: how much host steal slowed it."""
        return self.wall / self.unstolen_s


@dataclass
class Phase:
    """One timed phase: the load generator's record of it and what each
    request asked for (``stream[i]`` for the request with index ``i``)."""

    result: object        # loadgen.PhaseResult, ticks probed (steal, server cpu)
    stream: list

    @property
    def steal_s(self) -> float:
        return self.result.ticks[-1][1][0] - self.result.ticks[0][1][0]

    @property
    def cpu_s(self) -> float:
        return self.result.ticks[-1][1][1] - self.result.ticks[0][1][1]

    def ok(self, kind: str | None = None) -> list:
        return [s for s in self.result.samples
                if s.status == 200 and (kind is None or s.kind == kind)]

    def windows(self, speed: float) -> list[Window]:
        out = []
        samples = sorted(self.ok(), key=lambda s: s.done)
        ticks = self.result.ticks
        i = 0
        for (t0, (st0, c0)), (t1, (st1, c1)) in zip(ticks, ticks[1:]):
            j = i
            while j < len(samples) and samples[j].done <= t1:
                j += 1
            out.append(Window(t1 - t0, st1 - st0, c1 - c0, samples[i:j], speed))
            i = j
        return out


@dataclass
class Lifetime:
    """Everything measured over one server launch, from start to stop."""

    setup_s: float
    read: Phase
    batch: Phase
    rss_mb: float
    cache0: dict
    cache1: dict
    ref_ms: float         # median reference job time around the launch
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    spans: object = None  # tracer.Spans of a traced launch

    @property
    def speed(self) -> float:
        """Host speed over this launch: nominal / measured reference time."""
        return procs.REF_NOMINAL_MS / self.ref_ms


class Workload:
    """Request streams and checks of one named workload for one seed."""

    def __init__(self, name: str, seed: int, seconds: float, workdir: Path) -> None:
        import numpy as np

        import workloads as wl

        self.wl = wl
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        if name == "ingest-live":
            rng = np.random.default_rng([seed, 1])
            n_live = int(math.ceil(seconds * READ_SHARE * wl.INGEST_RATE))
            self.ingests = [wl.lab_dataset(rng, i)
                            for i in range(wl.LAB_SEED_DATASETS + n_live)]
        self.oracle = None
        self.tenant_oracles: dict[int, object] = {}

    def streams(self):
        """Fresh, seeded request generators: every pass sends the same."""
        import numpy as np

        self.rng = np.random.default_rng([self.seed, WORKLOADS.index(self.name)])
        self.cold = self.wl.ColdStream(self.rng)
        self.warm_cold = self.wl.ColdStream(np.random.default_rng([self.seed, 99]))

    def new_hot_sets(self) -> None:
        """Each launch browses its own hot sets: which genes a hot query
        holds moves its cost, and a few queries carry most of the traffic,
        so one hot set per run would make the seed set the run's figures."""
        wl = self.wl
        self.hot = wl.HotSet(self.rng, wl.HOT_QUERIES)
        self.lab = wl.HotSet(self.rng, wl.LAB_QUERIES, compendium=wl.LAB, pages=1)

    # ------------------------------------------------------------ streams
    def read_requests(self, stream: list):
        """The closed-loop read stream; records each query in ``stream``."""
        wl = self.wl
        while True:
            i = len(stream)
            if self.name == "browse-hot":
                q = self.hot.draw()
                keep = True
            else:
                q = self.cold.draw()
                keep = i % COLD_KEEP_EVERY == 0
            stream.append(q)
            yield wl.search_request(q, keep=keep)

    def open_schedule(self, read_s: float) -> list:
        """ingest-live: reads at a fixed rate on lane 0, ingests on lane 1."""
        from loadgen import Request, encode

        wl = self.wl
        out = []
        for i in range(int(read_s * wl.READ_RATE)):
            q = self.lab.draw() if i % 2 else self.hot.draw()
            out.append((wl.search_request(q, keep=q.compendium is None, lane=0,
                                          due=i / wl.READ_RATE), q))
        for j, item in enumerate(self.ingests[wl.LAB_SEED_DATASETS:]):
            due = (j + 0.5) / wl.INGEST_RATE
            if due < read_s:
                req = Request("ingest", encode("POST", "/v1/ingest", wl.ingest_payload(item)),
                              lane=1, due=due, keep=True)
                out.append((req, item))
        return out

    def batch_requests(self, stream: list):
        from loadgen import Request, encode

        wl = self.wl
        while True:
            b = len(stream)
            if self.name == "browse-hot":
                members = [self.hot.draw() for _ in range(wl.BATCH_SIZE)]
            elif self.name == "ingest-live":
                src = self.lab if b % 2 else self.hot
                members = [src.draw() for _ in range(wl.BATCH_SIZE)]
            else:
                members = [self.cold.draw() for _ in range(wl.BATCH_SIZE)]
            stream.append(members)
            # ingest-live alternates tenants, so check a batch of each
            keep = b % BATCH_KEEP_EVERY == 0 or (
                self.name == "ingest-live" and b % BATCH_KEEP_EVERY == 1)
            yield Request("batch", encode("POST", "/v1/search/batch",
                                          wl.batch_payload(members)), keep=keep)

    # ------------------------------------------------------------- set-up
    def launch(self, traced: bool):
        sub = Path(tempfile.mkdtemp(prefix="pass-", dir=self.workdir))
        if self.name == "sharded-cold":
            dep = procs.launch_sharded(sub, traced=traced)
        else:
            dep = procs.launch_single(sub, catalog=self.name == "ingest-live",
                                      traced=traced)
        try:
            if self.name == "ingest-live":
                from loadgen import call

                for item in self.ingests[:self.wl.LAB_SEED_DATASETS]:
                    status, body = call(dep.host, dep.port, "POST", "/v1/ingest",
                                        self.wl.ingest_payload(item))
                    if status != 200:
                        raise BenchError(f"seed ingest {item[0]} refused: {body}")
        except BaseException:
            dep.stop()
            raise
        return dep, sub

    def warm(self, dep, queries: list | None = None) -> None:
        """Untimed: fill the cache with the hot set, run a few cold queries."""
        from loadgen import closed_loop

        wl = self.wl
        if queries is None:
            queries = self.hot.all_pages()
            if self.name == "ingest-live":
                queries += self.lab.all_pages()
            queries += [self.warm_cold.draw() for _ in range(WARM_COLD)]
        res = closed_loop(dep.host, dep.port,
                          iter([wl.search_request(q, keep=False) for q in queries]),
                          1, float("inf"), procs.client_cpu_seconds)
        bad = [s for s in res.samples if s.status != 200]
        if bad:
            raise BenchError(f"warm-up request refused: {bad[0].body[:300]!r}")

    # ---------------------------------------------------------- launches
    def run_pass(self, *, traced: bool, lifetimes: int) -> list[Lifetime]:
        """Split ``--seconds`` over ``lifetimes`` fresh server launches.

        Separate processes land in separate memory layouts and thread
        interleavings, which moved a process's cost per request by up to
        a third; pooling launches keeps one of them from setting a run's
        figures.  The request streams continue from launch to launch.
        """
        self.streams()
        return [self.run_lifetime(traced, self.seconds / lifetimes)
                for _ in range(lifetimes)]

    def run_lifetime(self, traced: bool, seconds: float) -> Lifetime:
        from loadgen import closed_loop, open_loop

        read_s = seconds * READ_SHARE
        self.new_hot_sets()
        refs = [procs.reference_ms()]
        t0, steal0 = time.perf_counter(), procs.host_steal_seconds()
        dep, sub = self.launch(traced)
        setup_s = procs.unstolen(time.perf_counter() - t0,
                                 procs.host_steal_seconds() - steal0)
        try:
            self.warm(dep)
            refs.append(procs.reference_ms())
            cache0 = dep.health()["cache"]

            def probe():
                return procs.host_steal_seconds(), dep.cpu_seconds()

            if self.name == "ingest-live":
                sched = self.open_schedule(read_s)
                stream = [x for _, x in sched]
                res = open_loop(dep.host, dep.port, [r for r, _ in sched], 2,
                                procs.client_cpu_seconds, probe, READ_TICK_S)
            else:
                stream = []
                res = closed_loop(dep.host, dep.port, self.read_requests(stream), 2,
                                  read_s, procs.client_cpu_seconds, probe, READ_TICK_S)
            read = Phase(res, stream)
            cache1 = dep.health()["cache"]
            refs.append(procs.reference_ms())
            if self.name == "ingest-live":
                # the batch phase reads the final lab version from cache
                self.warm(dep, self.lab.all_pages())
            stream = []
            res = closed_loop(dep.host, dep.port, self.batch_requests(stream), 1,
                              seconds - read_s, procs.client_cpu_seconds,
                              probe, BATCH_TICK_S)
            refs.append(procs.reference_ms())
            life = Lifetime(setup_s, read, Phase(res, stream), dep.hwm_mb(), cache0, cache1,
                            statistics.median(refs))
            if self.name == "ingest-live":
                self.check_tenant(dep, life)
        finally:
            dep.stop()
        if traced:
            from tracer import Spans

            files = sorted(sub.glob("spans-*.json"))
            if len(files) != len(dep.procs):
                raise BenchError("a traced server stopped without writing its spans")
            life.spans = Spans(files)
        self.check_answers(life)
        shutil.rmtree(sub, ignore_errors=True)
        return life

    # ------------------------------------------------------------- oracle
    def _acked(self, p: Lifetime) -> list:
        """Ingests the server acknowledged, in the order it applied them."""
        live = [p.read.stream[s.index] for s in sorted(p.read.ok("ingest"),
                                                       key=lambda s: s.done)]
        return self.ingests[:self.wl.LAB_SEED_DATASETS] + live

    def check_tenant(self, dep, p: Lifetime) -> None:
        """ingest-live, after the phases: every acknowledged ingest is
        served by tenant lab, whose state and answers match an oracle over
        exactly those datasets."""
        from loadgen import call
        from oracle import Oracle, scrub

        wl = self.wl
        acked = self._acked(p)
        oracle = self.tenant_oracles[id(p)] = Oracle.tenant(acked)
        compendium = oracle.app.service.compendium
        names = [name for name, _, _ in acked]
        want = {ds.name: ds.fingerprint for ds in compendium}
        for s in p.read.ok("ingest"):
            got = json.loads(s.body)["fingerprint"]
            if got != want[p.read.stream[s.index][0]]:
                p.failures.append(f"ingest {p.read.stream[s.index][0]} fingerprint {got}")
        tenant = dep.health()["tenants"].get(wl.LAB, {})
        p.attempted += 2
        if (tenant.get("datasets"), tenant.get("fingerprint")) != (
                len(acked), compendium.fingerprint):
            p.failures.append(f"tenant {wl.LAB} health {tenant} != {len(acked)} datasets")
        payload = {"genes": list(self.lab.queries[0]), "page_size": wl.PAGE_SIZE,
                   "top_datasets": len(names), "datasets": names, "compendium": wl.LAB}
        status, got = call(dep.host, dep.port, "POST", "/v1/search", payload)
        if status != 200 or scrub(got) != oracle.want("search", single_tenant(payload)):
            p.failures.append(f"final {wl.LAB} search differs from the oracle")
        elif sorted(r[1] for r in got["dataset_rows"]) != sorted(names):
            p.failures.append(f"tenant {wl.LAB} does not serve every acknowledged ingest")

    def check_answers(self, p: Lifetime) -> None:
        """Refused requests and kept answers that differ from the oracle."""
        from oracle import Oracle

        if self.oracle is None:
            self.oracle = Oracle.fig4()
        for phase, endpoint in ((p.read, "search"), (p.batch, "search/batch")):
            p.attempted += len(phase.result.samples)
            for s in phase.result.samples:
                if s.status != 200:
                    p.failures.append(f"{s.kind} #{s.index}: HTTP {s.status} "
                                      f"{(s.body or b'')[:200]!r}")
                    continue
                if s.body is None or s.kind == "ingest":
                    continue
                asked = phase.stream[s.index]
                if endpoint == "search":
                    payload, tenant = asked.wire(), asked.compendium
                else:
                    payload, tenant = self.wl.batch_payload(asked), asked[0].compendium
                if tenant is None:
                    ok = self.oracle.matches(endpoint, payload, s.body)
                else:
                    ok = self.tenant_oracles[id(p)].matches(
                        endpoint, single_tenant(payload), s.body)
                if not ok:
                    p.failures.append(f"{s.kind} #{s.index}: answer differs from the oracle")

    def close(self) -> None:
        if self.oracle is not None:
            self.oracle.close()
        for oracle in self.tenant_oracles.values():
            oracle.close()


def single_tenant(payload: dict) -> dict:
    """``payload`` as a single-tenant oracle takes it: no ``compendium``."""
    out = {k: v for k, v in payload.items() if k != "compendium"}
    if "searches" in out:
        out["searches"] = [single_tenant(m) for m in out["searches"]]
    return out


# ------------------------------------------------------------------ metrics
def full(windows: list[Window], tick_s: float) -> list[Window]:
    """Windows with answers, less a phase's closing sliver (a window
    shorter than half a tick that holds only the last answers) -- unless
    the phase was too short to have anything else."""
    answered = [w for w in windows if w.samples]
    return [w for w in answered if w.wall >= tick_s / 2] or answered


def quiet(windows: list[Window]) -> list[Window]:
    """The windows with the least host steal per second that together hold
    at least half of the answers and at least :data:`MIN_TAIL`, plus every
    window that steal does not tell apart from the last one kept (steal
    is counted in 10 ms ticks, so most windows of a calm run tie at 0)."""
    total = sum(len(w.samples) for w in windows)
    need = min(total, max(total / 2, MIN_TAIL))
    ranked = sorted(windows, key=lambda w: w.steal_s / w.wall)
    n, cut = 0, 0.0
    for w in ranked:
        if n >= need:
            break
        n += len(w.samples)
        cut = w.steal_s / w.wall
    return [w for w in ranked if w.steal_s / w.wall <= cut]


def end_to_end(lives: list[Lifetime], open_loop: bool) -> dict[str, float]:
    """The end-to-end metrics over a run's launches, with host steal
    taken out of wall time and times put at the nominal host speed.

    Each phase is cut into probe windows, pooled over the launches.  A
    steal burst of a few milliseconds lands whole on the requests in
    flight, so latency percentiles are taken over the quietest windows
    (see :func:`quiet`), each latency divided by its window's stretch
    (wall / unstolen time).  A closed loop's throughput is its answers
    per unstolen second, summed over the windows.  An open loop's
    throughput is its offered rate, which steal does not change, so it
    stays per wall second.

    Every time, set-up included, is multiplied by its launch's host
    speed, and every closed-loop rate divided by it: the figures the
    launch would show with the reference job at its nominal time.  CPU
    per request and rates are totals over the launches, not medians:
    some launches ran their batches at twice the CPU cost of others, and
    a median over five launches jumps between the two.
    """
    windows = [w for p in lives for w in full(p.read.windows(p.speed), READ_TICK_S)]
    latencies = [s.latency / w.stretch * w.speed for w in quiet(windows)
                 for s in w.samples if s.kind == "search"]
    batches = [(p, w) for p in lives
               for w in full(p.batch.windows(p.speed), BATCH_TICK_S)]
    members = sum(len(p.batch.stream[s.index]) for p, w in batches for s in w.samples)
    batch_s = sum(w.unstolen_s * w.speed for _, w in batches)

    if open_loop:
        rps = (sum(len(p.read.ok("search")) for p in lives)
               / sum(p.read.result.wall for p in lives))
    else:
        rps = (sum(s.kind == "search" for w in windows for s in w.samples)
               / sum(w.unstolen_s * w.speed for w in windows))
    return {
        "setup_s": statistics.median(p.setup_s * p.speed for p in lives),
        "rps": rps,
        "p50_ms": nearest_rank(latencies, 0.50) * 1e3,
        "p99_ms": nearest_rank(latencies, 0.99) * 1e3,
        "cpu_ms_per_req": (sum(w.cpu_s * w.speed for w in windows) * 1e3
                           / sum(len(w.samples) for w in windows)),
        "batch_qps": members / batch_s,
        "batch_cpu_ms_per_query": sum(w.cpu_s * w.speed for _, w in batches) * 1e3 / members,
        "rss_mb": statistics.median(p.rss_mb for p in lives),
        "success_share": 1.0 - (sum(len(p.failures) for p in lives)
                                / sum(p.attempted for p in lives)),
    }


def per_layer(untraced: Lifetime, traced: Lifetime) -> dict[str, float]:
    from tracer import fanout_ns

    sp = traced.spans
    rw = (traced.read.result.start, traced.read.result.end)
    bw = (traced.batch.result.start, traced.batch.result.end)
    setup = (0.0, rw[0])
    reads = traced.read.ok("search")
    ingests = traced.read.ok("ingest")
    batches = traced.batch.ok()
    n_members = sum(len(traced.batch.stream[s.index]) for s in batches)
    n = max(1, len(reads))

    def per(rows, count, scale, key="dur"):
        total = sum((r["t1"] - r["t0"]) if key == "dur" else r[key] for r in rows)
        return total / max(1, count) / scale

    def search(name, key="dur", scale=1e3):
        return per(sp.select(name, rw, "search"), n, scale, key)

    def ingest(name, key="dur"):
        return per(sp.select(name, rw, "ingest"), len(ingests), 1e6, key)

    wire = sp.select("api.app.handle_wire", rw, "search")
    rtt_us = statistics.fmean(s.done - s.sent for s in reads) * 1e6 if reads else 0.0
    merges = sp.select("spell.partials.merge", rw)
    partials = sp.select("spell.index.search_partials", rw)
    t0, t1 = traced.cache0, traced.cache1
    lookups = (t1["hits"] - t0["hits"]) + (t1["misses"] - t0["misses"])
    # both at the nominal host speed: the two launches ran at different times
    cpu_u = untraced.read.cpu_s * untraced.speed * 1e3 / max(1, len(untraced.read.ok()))
    cpu_t = traced.read.cpu_s * traced.speed * 1e3 / max(1, len(traced.read.ok()))
    ingest_lat = [s.latency * 1e3 for s in ingests]
    late = untraced.read.result.late
    return {
        "api.aio.transport_us": rtt_us - per(wire, n, 1e3),
        "api.app.handle_wire.self_us": per(wire, n, 1e3, "self"),
        "api.limits.admit_us": search("api.limits.admit"),
        "api.protocol.decode_us": search("api.protocol.decode"),
        "api.protocol.page_build_us": search("api.protocol.page_build"),
        "api.protocol.encode_us": search("api.protocol.encode"),
        "spell.service.search.self_us": search("spell.service.search", "self"),
        "spell.cache.lookup_us": search("spell.cache.lookup"),
        "spell.cache.hit_ratio": (t1["hits"] - t0["hits"]) / lookups if lookups else 0.0,
        "spell.cache.evictions": t1["evictions"] - t0["evictions"],
        "spell.index.search_us": search("spell.index.search"),
        "spell.index.search_batch_us_per_query": per(
            sp.select("spell.index.search_batch", bw), n_members, 1e3),
        "spell.service.respond_batch.self_us": per(
            sp.select("spell.service.respond_batch", bw), len(batches), 1e3, "self"),
        "spell.index.search_partials_us": per(partials, n, 1e3),
        "spell.partials.merge_us": per(merges, n, 1e3),
        "spell.partials.datasets_per_query": (
            sum(r["note"] for r in merges) / len(merges) if merges else 0.0),
        "cluster_serving.router.respond.self_us": search(
            "cluster_serving.router.respond", "self"),
        "rpc.fanout_wait_us": sum(
            fanout_ns(r) for r in sp.select("cluster_serving.router.respond", rw, "search")
        ) / n / 1e3,
        "data.parse_ms": ingest("data.parse"),
        "spell.catalog.ingest.self_ms": ingest("spell.catalog.ingest", "self"),
        "spell.index.updated_ms": ingest("spell.index.updated"),
        "spell.store.sync_ms": ingest("spell.store.sync"),
        "spell.catalog.resolve_us": search("spell.catalog.resolve"),
        "spell.index.build_ms": per(sp.select("spell.index.build", setup), 1, 1e6),
        "spell.store.load_ms": per(sp.select("spell.store.load", setup), 1, 1e6),
        "api.ingest.p50_ms": nearest_rank(ingest_lat, 0.5) if ingest_lat else 0.0,
        "host.steal_s": untraced.read.steal_s,
        "host.reference_ms": untraced.ref_ms,
        "client.cpu_ms_per_req": (untraced.read.result.client_cpu_s * 1e3
                                  / max(1, len(untraced.read.result.samples))),
        "client.late_ms": statistics.fmean(late) * 1e3 if late else 0.0,
        "trace.overhead_cpu_ms_per_req": cpu_t - cpu_u,
    }


def describe(lives: list[Lifetime], label: str) -> str:
    windows = [w for p in lives for w in full(p.read.windows(p.speed), READ_TICK_S)]
    kept = quiet(windows)
    return (f"# {label}: {len(lives)} launch(es); "
            f"{sum(len(p.read.ok('search')) for p in lives)} read samples over "
            f"{sum(p.read.result.wall for p in lives):.2f} s "
            f"({sum(s.kind == 'search' for w in kept for s in w.samples)} in the "
            f"{len(kept)} quietest of {len(windows)} windows), "
            f"{sum(len(p.batch.result.samples) for p in lives)} batches over "
            f"{sum(p.batch.result.wall for p in lives):.2f} s; host steal "
            f"{sum(p.read.steal_s + p.batch.steal_s for p in lives):.2f} s; server cpu "
            f"{sum(p.read.cpu_s + p.batch.cpu_s for p in lives):.2f} s; "
            f"{sum(len(p.failures) for p in lives)} failed of "
            f"{sum(p.attempted for p in lives)}"
            + "".join(f"\n# launch {i}: set-up {p.setup_s:.3f} s, reference job "
                      f"{p.ref_ms:.3f} ms, read {p.read.cpu_s * 1e3 / max(1, len(p.read.ok())):.3f}"
                      f" ms cpu/req, batch {p.batch.cpu_s * 1e3 / max(1, len(p.batch.ok())):.1f}"
                      f" ms cpu/batch, steal {p.read.steal_s + p.batch.steal_s:.2f} s"
                      for i, p in enumerate(lives)))


# --------------------------------------------------------------------- main
def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    procs.check_checkout()
    procs.pin_to_one_cpu()
    if str(procs.SRC) not in sys.path:
        sys.path.insert(0, str(procs.SRC))
    base = procs.ROOT / ".perfbench_run"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    w = Workload(workload, seed, seconds, workdir)
    try:
        if trace:
            # one full-length launch each way: the traced one gives the
            # layer figures, the untraced one the tracing overhead
            lives = w.run_pass(traced=False, lifetimes=1)
            print(describe(lives, "untraced"), flush=True)
            lives += w.run_pass(traced=True, lifetimes=1)
            print(describe(lives[1:], "traced"), flush=True)
            metrics, units = per_layer(lives[0], lives[1]), PER_LAYER
        else:
            lives = w.run_pass(traced=False, lifetimes=LIFETIMES[workload])
            print(describe(lives, "untraced"), flush=True)
            metrics, units = end_to_end(lives, workload == "ingest-live"), END_TO_END
    finally:
        w.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for p in lives:
        for line in p.failures[:10]:
            print(f"# failure: {line}", flush=True)
    attempted = sum(p.attempted for p in lives)
    failed = sum(len(p.failures) for p in lives)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 -- no result line for a run that broke
        traceback.print_exc()
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
