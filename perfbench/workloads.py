"""Request streams of the four workloads, generated from the workload seed.

The servers always hold the FIG4 compendium built from a fixed data
seed; ``--seed`` changes only which queries, pages and ingests are sent.

Query sizes cycle through their range rather than being drawn, so every
stretch of a run carries the same mix of sizes.

* ``browse-hot``: 64 queries of 3-8 genes, picked by a Zipf law (s=1.1),
  pages 0-3 at ``page_size`` 50.  The hot set fits the server's
  256-entry result cache, which an untimed pass warms.
* ``explore-cold``: every query unique, 2-20 genes; one in four is
  restricted to a ``datasets`` subset.  Nothing repeats, so every cache
  lookup misses.
* ``ingest-live``: an open loop of reads, half hot default-tenant pages
  and half queries to tenant ``lab``, beside two ingests a second, each a
  fresh 600 x 20 dataset, alternating PCL and SOFT.
* ``sharded-cold``: the explore-cold stream, sent through the router.

Every workload ends with a batch phase: ``/v1/search/batch`` requests of
32 members drawn from the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from loadgen import Request, encode
from repro.data.pcl import format_pcl
from repro.data.soft import format_series_matrix
from repro.synth import make_simple_dataset
from repro.synth.names import systematic_names

N_GENES = 600
N_DATASETS = 40
HOT_QUERIES = 64
HOT_SIZES = (3, 8)
HOT_PAGES = 4
PAGE_SIZE = 50
ZIPF_S = 1.1
COLD_SIZES = (2, 20)
COLD_FILTERED_EVERY = 4
FILTER_SIZES = (4, 20)
BATCH_SIZE = 32
LAB = "lab"
LAB_SEED_DATASETS = 8
LAB_QUERIES = 32
READ_RATE = 200.0     # reads/s in ingest-live
INGEST_RATE = 2.0     # ingests/s in ingest-live

GENES = systematic_names(N_GENES)
DATASETS = [f"dataset_{d:02d}" for d in range(N_DATASETS)]


def _size(sizes: tuple[int, int], i: int) -> int:
    """The ``i``-th size of a range, cycled: any run of draws carries the
    same size mix, so the work per window depends little on the seed."""
    return sizes[0] + i % (sizes[1] - sizes[0] + 1)


def _genes(rng: np.random.Generator, k: int) -> list[str]:
    return [GENES[i] for i in rng.choice(N_GENES, size=k, replace=False)]


def _zipf(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** ZIPF_S
    return w / w.sum()


@dataclass(frozen=True)
class Query:
    genes: tuple[str, ...]
    page: int = 0
    datasets: tuple[str, ...] | None = None
    compendium: str | None = None

    def wire(self) -> dict:
        out: dict = {"genes": list(self.genes), "page": self.page,
                     "page_size": PAGE_SIZE}
        if self.datasets is not None:
            out["datasets"] = list(self.datasets)
        if self.compendium is not None:
            out["compendium"] = self.compendium
        return out


class HotSet:
    """A fixed set of queries revisited by a Zipf law, with random pages."""

    def __init__(self, rng: np.random.Generator, n: int, compendium: str | None = None,
                 pages: int = HOT_PAGES) -> None:
        seen: set[tuple[str, ...]] = set()
        self.queries: list[tuple[str, ...]] = []
        while len(self.queries) < n:
            genes = tuple(_genes(rng, _size(HOT_SIZES, len(self.queries))))
            if tuple(sorted(genes)) not in seen:
                seen.add(tuple(sorted(genes)))
                self.queries.append(genes)
        self.compendium = compendium
        self.pages = pages
        self.p = _zipf(n)
        self.rng = rng

    def all_pages(self) -> list[Query]:
        return [Query(g, page, compendium=self.compendium)
                for g in self.queries for page in range(self.pages)]

    def draw(self) -> Query:
        qi = int(self.rng.choice(len(self.queries), p=self.p))
        page = int(self.rng.integers(0, self.pages))
        return Query(self.queries[qi], page, compendium=self.compendium)


class ColdStream:
    """Unique queries of 2-20 genes; every fourth is dataset-restricted."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.seen: set = set()
        self.n = 0

    def draw(self) -> Query:
        while True:
            genes = tuple(_genes(self.rng, _size(COLD_SIZES, self.n)))
            datasets = None
            if self.n % COLD_FILTERED_EVERY == COLD_FILTERED_EVERY - 1:
                k = _size(FILTER_SIZES, self.n // COLD_FILTERED_EVERY)
                picked = np.sort(self.rng.choice(N_DATASETS, size=k, replace=False))
                datasets = tuple(DATASETS[i] for i in picked)
            key = (tuple(sorted(genes)), datasets)
            if key not in self.seen:
                self.seen.add(key)
                self.n += 1
                return Query(genes, 0, datasets)


def search_request(q: Query, keep: bool, lane: int = 0, due: float = 0.0) -> Request:
    return Request("search", encode("POST", "/v1/search", q.wire()), lane, due, keep)


def batch_payload(members: list[Query]) -> dict:
    payload: dict = {"searches": [m.wire() for m in members]}
    if members[0].compendium is not None:
        payload["compendium"] = members[0].compendium
    return payload


def lab_dataset(rng: np.random.Generator, i: int) -> tuple[str, str, str]:
    """``(name, format, content)`` of the ``i``-th dataset ingested into lab."""
    name = f"lab_{i:03d}"
    ds = make_simple_dataset(name=name, n_genes=N_GENES, n_conditions=20,
                             n_module_genes=30,
                             seed=int(rng.integers(0, 2**31 - 1)))
    if i % 2 == 0:
        return name, "pcl", format_pcl(ds.matrix)
    return name, "soft", format_series_matrix(ds)


def ingest_payload(item: tuple[str, str, str]) -> dict:
    name, fmt, content = item
    return {"name": name, "format": fmt, "content": content, "compendium": LAB}
