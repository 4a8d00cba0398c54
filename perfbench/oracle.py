"""In-process reference answers the served responses must equal.

The default-tenant oracle is built through the server's own CLI
argument parser and service recipe over the same FIG4 arguments, so it
holds the same compendium; a tenant oracle holds exactly the datasets
the server acknowledged.  Both answer through ``ApiApp.handle_wire``,
the call every facade makes.  Responses are compared as parsed JSON with
the timing fields removed, so equal means bit-identical scores and
ranks.
"""

from __future__ import annotations

import json
import re

from procs import FIG4_ARGS
from repro.api.app import ApiApp
from repro.data.compendium import Compendium
from repro.data.loader import parse_dataset
from repro.spell import SpellService

#: timing fields: top-level keys of a search answer and of a batch answer
_VOLATILE = {"elapsed_seconds", "total_seconds"}
_ELAPSED = re.compile(rb'"(elapsed|total)_seconds": ?[-0-9.eE+]+')


def scrub(body: dict) -> dict:
    return {k: v for k, v in body.items() if k not in _VOLATILE}


def comparable(endpoint: str, body: dict):
    """What must match: a search answer without its timing fields, or a
    batch answer's members (worker and cache tallies differ between a
    warm server and a fresh oracle)."""
    if endpoint == "search/batch":
        return [scrub(r) for r in body["results"]]
    return scrub(body)


class Oracle:
    def __init__(self, app: ApiApp) -> None:
        self.app = app
        self._memo: dict[str, object] = {}
        self._verdicts: dict[tuple, bool] = {}

    @classmethod
    def fig4(cls) -> "Oracle":
        """The default tenant every server holds."""
        from repro.api.aio.__main__ import _parser
        from repro.api.http import _build_service

        service, _truth = _build_service(_parser().parse_args(FIG4_ARGS))
        return cls(ApiApp(service))

    @classmethod
    def tenant(cls, acked: list[tuple[str, str, str]]) -> "Oracle":
        """A tenant over exactly the acknowledged ingests, in ingest order."""
        datasets = [parse_dataset(content, fmt, name=name) for name, fmt, content in acked]
        return cls(ApiApp(SpellService(Compendium(datasets), n_workers=4)))

    def close(self) -> None:
        self.app.service.close()

    def want(self, endpoint: str, payload: dict):
        key = endpoint + json.dumps(payload, sort_keys=True)
        if key not in self._memo:
            status, body = self.app.handle_wire(endpoint, payload)
            if status != 200:
                raise RuntimeError(f"oracle refused {endpoint} {payload}: {body}")
            self._memo[key] = comparable(endpoint, body)
        return self._memo[key]

    def matches(self, endpoint: str, payload: dict, body: bytes) -> bool:
        """Does the served ``body`` equal the oracle's answer to ``payload``?

        Verdicts are memoized on the payload and the body with its timing
        fields removed: a hot page repeats thousands of times a run.
        """
        key = (endpoint, json.dumps(payload, sort_keys=True), _ELAPSED.sub(b"", body))
        if key not in self._verdicts:
            got = comparable(endpoint, json.loads(body))
            self._verdicts[key] = got == self.want(endpoint, payload)
        return self._verdicts[key]
