"""Server processes for the benchmark, and their accounting through /proc.

Every server runs out of process, launched from the checkout's own
``src/`` tree.  A traced launch runs the same CLI ``main`` under
``tracer.py``, which records spans and writes them when the process
stops.  CPU time and peak resident memory are read from ``/proc`` for
each launched process and every live descendant.
"""

from __future__ import annotations

import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The FIG4 compendium: 40 datasets x 600 genes x 20 conditions.  The
#: data seed is fixed; the workload seed drives only the request stream.
FIG4_ARGS = [
    "--synth-datasets", "40",
    "--synth-genes", "600",
    "--synth-conditions", "20",
    "--seed", "424",
]
N_SHARDS = 3
_TICK = os.sysconf("SC_CLK_TCK")
_READY_TIMEOUT = 120.0
_STOP_TIMEOUT = 15.0


class BenchError(RuntimeError):
    """A benchmark step that cannot go on (server died, never ready, ...)."""


def pin_to_one_cpu() -> None:
    """Run this process and every server it starts on one CPU.

    On a 2-vCPU virtual machine, keeping both vCPUs busy drew 5-33% host
    steal in a run while one busy vCPU drew under 4%, and cross-CPU
    wake-ups made the loss grow faster than the steal itself.  On one
    CPU a steal burst pauses client and servers together, so the time
    it takes out of a phase is the steal counted on that CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def check_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")


def server_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------- /proc
def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            tids = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
            except OSError:
                pass
    return out


def _cpu_ticks(pid: int) -> int:
    """utime+stime of ``pid`` plus its reaped children's."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0
    # fields[0] is state (field 3); utime..cstime are fields 14..17
    return sum(int(fields[i]) for i in (11, 12, 13, 14))


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_cpu_seconds(pids: list[int]) -> float:
    return sum(_cpu_ticks(p) for root in pids for p in _descendants(root)) / _TICK


def tree_hwm_mb(pids: list[int]) -> float:
    return sum(_hwm_kb(p) for root in pids for p in _descendants(root)) / 1024.0


def host_steal_seconds() -> float:
    """Cumulative host steal, summed over the CPUs this process may use."""
    cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    total = 0
    with open("/proc/stat") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] in cpus:
                total += int(fields[8])
    return total / _TICK


def unstolen(wall_s: float, steal_s: float) -> float:
    """The part of ``wall_s`` the host let this VM run: steal is summed
    over the usable CPUs, so one CPU's share is ``steal_s / n_cpus``."""
    # steal is counted in 10 ms ticks: never let a short window go empty
    return max(wall_s - steal_s / len(os.sched_getaffinity(0)), wall_s / 100)


#: :func:`reference_ms` on the 2-vCPU virtual machine the benchmark was
#: built on, in a calm period: the host speed the metrics are put at.
REF_NOMINAL_MS = 3.0


def reference_ms() -> float:
    """How fast the host runs this VM right now: the median thread CPU time,
    in ms, of a fixed job of Python dict work and small numpy products.

    Neighbours on the host changed how fast a vCPU ran by up to a third
    for tens of seconds at a time, with no steal counted.  The job is the
    benchmark's own code, so no program change moves it; run it while the
    servers are idle.  It is reported next to the results so host noise
    can be told apart from a program change, and scales no metric.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((600, 20))
    b = np.random.default_rng(1).standard_normal((20, 32))
    times = []
    for _ in range(9):
        t0 = time.thread_time()
        d = {}
        for i in range(1500):
            d[str(i)] = i
        for _ in range(15):
            (a @ b).sort(axis=0)
        times.append(time.thread_time() - t0)
    return statistics.median(times) * 1e3


def client_cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


# -------------------------------------------------------------- servers
class Proc:
    """One launched server process; stdout/stderr go to files."""

    def __init__(self, module: str, args: list[str], workdir: Path, tag: str,
                 spans: Path | None = None) -> None:
        self.tag = tag
        self.out_path = workdir / f"{tag}.out"
        self.err_path = workdir / f"{tag}.err"
        if spans is None:
            cmd = [sys.executable, "-m", module, *args]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans),
                   module, *args]
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.popen = subprocess.Popen(
                cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=server_env(), cwd=str(workdir),
            )

    @property
    def pid(self) -> int:
        return self.popen.pid

    def wait_line(self, pattern: re.Pattern, deadline: float) -> re.Match:
        while True:
            text = self.out_path.read_text(errors="replace")
            m = pattern.search(text)
            if m:
                return m
            if self.popen.poll() is not None:
                raise BenchError(f"{self.tag} exited with {self.popen.returncode}: "
                                 f"{self.err_path.read_text(errors='replace')[-2000:]}")
            if time.monotonic() > deadline:
                raise BenchError(f"{self.tag} not ready after {_READY_TIMEOUT:.0f} s")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
        try:
            self.popen.wait(timeout=_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.popen.kill()
            self.popen.wait()


_AIO_READY = re.compile(r"serving v1 API on http://([\d.]+):(\d+)/v1/")
_SHARD_READY = re.compile(r"shard shard-\d+ serving \d+/\d+ datasets on ([\d.]+):(\d+)")
_ROUTER_READY = re.compile(r"routing v1 API on http://([\d.]+):(\d+)/v1 over (\d+)/(\d+)")


class Deployment:
    """The server process(es) of one workload, from launch to stop."""

    def __init__(self, procs: list[Proc], host: str, port: int) -> None:
        self.procs = procs
        self.host = host
        self.port = port

    @property
    def pids(self) -> list[int]:
        return [p.pid for p in self.procs]

    def cpu_seconds(self) -> float:
        return tree_cpu_seconds(self.pids)

    def hwm_mb(self) -> float:
        return tree_hwm_mb(self.pids)

    def health(self) -> dict:
        url = f"http://{self.host}:{self.port}/v1/health"
        with urllib.request.urlopen(url, timeout=30) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        # the front end first, so no request reaches a stopped shard
        for p in self.procs[::-1]:
            p.stop()

    def alive(self) -> bool:
        return all(p.popen.poll() is None for p in self.procs)


def launch_single(workdir: Path, *, catalog: bool, traced: bool) -> Deployment:
    """``python -m repro.api.aio --loops 1`` over an empty store dir."""
    store = workdir / "store"
    args = ["--loops", "1", "--port", "0", "--store-dir", str(store), *FIG4_ARGS]
    if catalog:
        args += ["--catalog-root", str(workdir / "catalog")]
    spans = workdir / "spans-aio.json" if traced else None
    proc = Proc("repro.api.aio", args, workdir, "aio", spans)
    try:
        m = proc.wait_line(_AIO_READY, time.monotonic() + _READY_TIMEOUT)
        dep = Deployment([proc], m.group(1), int(m.group(2)))
        _wait_healthy(dep)
    except BaseException:
        proc.stop()
        raise
    return dep


def launch_sharded(workdir: Path, *, traced: bool) -> Deployment:
    """3 x ``python -m repro.cluster_serving.shard`` + the router."""
    procs: list[Proc] = []
    try:
        for i in range(N_SHARDS):
            args = ["--port", "0", "--shards", str(N_SHARDS), "--shard-index", str(i),
                    *FIG4_ARGS]
            spans = workdir / f"spans-shard{i}.json" if traced else None
            procs.append(Proc("repro.cluster_serving.shard", args, workdir,
                              f"shard{i}", spans))
        deadline = time.monotonic() + _READY_TIMEOUT
        addrs = []
        for p in procs:
            m = p.wait_line(_SHARD_READY, deadline)
            addrs.append(f"{m.group(1)}:{m.group(2)}")
        args = ["--port", "0", "--shard-addresses", ",".join(addrs), *FIG4_ARGS]
        spans = workdir / "spans-router.json" if traced else None
        router = Proc("repro.cluster_serving", args, workdir, "router", spans)
        procs.append(router)
        m = router.wait_line(_ROUTER_READY, deadline)
        if m.group(3) != m.group(4):
            raise BenchError(f"router sees {m.group(3)}/{m.group(4)} live shards")
        dep = Deployment(procs, m.group(1), int(m.group(2)))
        _wait_healthy(dep)
    except BaseException:
        for p in procs[::-1]:
            p.stop()
        raise
    return dep


def _wait_healthy(dep: Deployment) -> None:
    deadline = time.monotonic() + _READY_TIMEOUT
    while True:
        try:
            if dep.health().get("status") == "ok":
                return
        except OSError:
            pass
        if not dep.alive():
            raise BenchError("server exited before it became healthy")
        if time.monotonic() > deadline:
            raise BenchError("server never answered /v1/health")
        time.sleep(0.01)
