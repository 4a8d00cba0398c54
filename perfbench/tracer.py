"""Traced server launcher and span analysis.

Run as ``python perfbench/tracer.py --spans OUT MODULE [ARGS...]``: wraps
the public functions listed in :data:`TARGETS` with span recorders, then
calls ``MODULE.main(ARGS)`` -- the same CLI entry point an untraced run
starts.  A span records its name, start, end, parent span and request
id.  Spans stay in memory and are written to OUT when ``main`` returns;
SIGTERM makes ``main`` return.

A span opened on a thread with no open span starts a new request id.  A
thread started while a span is open inherits that span as its parent,
so the router's per-shard calls belong to the request that fanned out.
A function that is re-entered under a span of the same name records
only the outermost call.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import signal
import sys
import threading
import time

#: (module, class or None, attribute, span name, argument recorded)
TARGETS = [
    ("repro.api.app", "ApiApp", "handle_wire", "api.app.handle_wire", 1),
    ("repro.api.limits", "RequestGate", "admit", "api.limits.admit", 1),
    ("repro.api.protocol", "SearchRequest", "from_wire", "api.protocol.decode", None),
    ("repro.api.protocol", "SearchResponse", "from_result", "api.protocol.page_build", None),
    ("repro.api.protocol", "SearchResponse", "to_wire", "api.protocol.encode", None),
    ("repro.api.protocol", "BatchSearchResponse", "to_wire", "api.protocol.encode", None),
    ("repro.spell.catalog", "CompendiumCatalog", "resolve", "spell.catalog.resolve", None),
    ("repro.spell.catalog", "CompendiumCatalog", "ingest", "spell.catalog.ingest", None),
    ("repro.spell.service", "SpellService", "search", "spell.service.search", None),
    ("repro.spell.service", "SpellService", "respond_batch",
     "spell.service.respond_batch", "searches"),
    ("repro.spell.cache", "QueryCache", "lookup", "spell.cache.lookup", None),
    ("repro.spell.index", "SpellIndex", "build", "spell.index.build", None),
    ("repro.spell.index", "SpellIndex", "search", "spell.index.search", None),
    ("repro.spell.index", "SpellIndex", "search_batch", "spell.index.search_batch", 1),
    ("repro.spell.index", "SpellIndex", "search_partials", "spell.index.search_partials", None),
    ("repro.spell.index", "SpellIndex", "updated", "spell.index.updated", None),
    ("repro.spell.store", "IndexStore", "sync", "spell.store.sync", None),
    ("repro.spell.store", "IndexStore", "load", "spell.store.load", None),
    ("repro.spell.partials", "GeneUniverse", "merge", "spell.partials.merge", 6),
    ("repro.cluster_serving.router", "RouterService", "respond",
     "cluster_serving.router.respond", None),
    ("repro.rpc.membership", "Membership", "call", "rpc.call", 2),
    ("repro.data.loader", None, "parse_dataset", "data.parse", None),
]

_spans: list[tuple] = []
_local = threading.local()
_span_ids = itertools.count(1)
_request_ids = itertools.count(1)


def _summary(value):
    """What a span keeps of its recorded argument: strings as they are,
    sized things by their length."""
    if isinstance(value, str):
        return value
    if hasattr(value, "__len__"):
        return len(value)
    return None


def _wrap(fn, name: str, arg):
    def traced(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        if any(open_name == name for open_name, _, _ in stack):
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else getattr(threading.current_thread(),
                                                 "_perfbench_parent", None)
        span_id = next(_span_ids)
        request_id = parent[2] if parent else next(_request_ids)
        stack.append((name, span_id, request_id))
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            if arg is None:
                note = None
            elif isinstance(arg, int):
                note = _summary(args[arg]) if len(args) > arg else None
            else:
                note = _summary(getattr(args[1], arg, None)) if len(args) > 1 else None
            _spans.append((name, t0, t1, span_id, parent[1] if parent else 0,
                           request_id, note))

    traced.__wrapped__ = fn
    return traced


def install() -> None:
    for module_name, cls_name, attr, name, arg in TARGETS:
        module = importlib.import_module(module_name)
        if cls_name is None:
            original = getattr(module, attr)
            traced = _wrap(original, name, arg)
            # the function is imported by name elsewhere: rebind every copy
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and \
                        getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)
            continue
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap(raw.__func__, name, arg)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(_wrap(raw.__func__, name, arg)))
        else:
            setattr(cls, attr, _wrap(raw, name, arg))

    start = threading.Thread.start

    def start_with_parent(thread):
        stack = getattr(_local, "stack", None)
        if stack:
            thread._perfbench_parent = stack[-1]
        return start(thread)

    threading.Thread.start = start_with_parent


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        sys.stderr.write("usage: tracer.py --spans OUT MODULE [ARGS...]\n")
        return 2
    out, module_name, args = argv[1], argv[2], argv[3:]
    # the module is what `python -m` would run: its __main__ when a package
    module = importlib.import_module(module_name)
    if hasattr(module, "__path__"):
        module = importlib.import_module(module_name + ".__main__")
    install()
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return module.main(args)
    except KeyboardInterrupt:
        return 0
    finally:
        tmp = out + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": _spans}, fh)
        os.replace(tmp, out)


# ------------------------------------------------------------------ analysis
class Spans:
    """Spans of every traced process, with self time worked out."""

    def __init__(self, paths) -> None:
        self.rows: list[dict] = []
        for path in paths:
            with open(path) as fh:
                data = json.load(fh)
            pid = data["pid"]
            rows = [dict(name=s[0], t0=s[1], t1=s[2], id=(pid, s[3]),
                         parent=(pid, s[4]) if s[4] else None,
                         rid=(pid, s[5]), note=s[6]) for s in data["spans"]]
            children: dict = {}
            for r in rows:
                if r["parent"] is not None:
                    children.setdefault(r["parent"], []).append(r)
            for r in rows:
                kids = children.get(r["id"], [])
                r["kids"] = kids
                r["self"] = (r["t1"] - r["t0"]) - _covered(r, kids)
            self.rows.extend(rows)
        # request id -> endpoint of the ApiApp.handle_wire call that began it
        self.endpoint = {r["rid"]: r["note"] for r in self.rows
                         if r["name"] == "api.app.handle_wire" and r["parent"] is None}

    def select(self, name: str, window: tuple[float, float], endpoint=None) -> list[dict]:
        lo, hi = window[0] * 1e9, window[1] * 1e9
        out = []
        for r in self.rows:
            if r["name"] != name or not lo <= r["t0"] < hi:
                continue
            if endpoint is not None:
                # gate checks made before the handler runs carry the endpoint
                ep = self.endpoint.get(r["rid"], r["note"] if r["parent"] is None else None)
                if ep != endpoint:
                    continue
            out.append(r)
        return out


def _covered(span: dict, kids: list[dict]) -> int:
    """Length of the part of ``span`` that its children's intervals cover."""
    ivs = sorted((max(k["t0"], span["t0"]), min(k["t1"], span["t1"])) for k in kids)
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in ivs:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def fanout_ns(span: dict) -> int:
    """Time a router span spent with at least one shard call open."""
    calls = [k for k in span["kids"] if k["name"] == "rpc.call" and k["note"] == "partials"]
    return _covered(span, calls)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
