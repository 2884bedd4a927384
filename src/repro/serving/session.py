"""`QuerySession`: the unified public entry point.

One object, one lifecycle, instead of the former sprawl of
``SelfOptimizingQueryProcessor`` kwargs, separate plain and resilient
executor call sites, and CLI-only replay plumbing::

    import repro

    with repro.open_session("kb.dl", "facts.dl") as session:
        answer = session.query("instructor(manolis)?")
        answers = session.query_batch(batch_of_queries)
        report = session.learn_from_stream(open("stream.txt"))
        print(session.report())

A session owns a processor (configured by a
:class:`~repro.serving.config.SessionConfig`), fronted by a
:class:`~repro.serving.server.QueryServer` (configured by
:class:`ServingConfig`/:class:`CacheConfig`), plus an optional default
database.  Everything the CLI's ``learn``/``trace``/``serve``
subcommands do goes through this layer — the CLI is a thin adapter.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..datalog.database import Database
from ..datalog.parser import parse_program, parse_query, strip_comment
from ..datalog.rules import RuleBase
from ..datalog.terms import Atom
from ..errors import ReproError
from ..observability.recorder import Recorder
from ..storage.interface import FactStore
from ..system import SelfOptimizingQueryProcessor, SystemAnswer
from .admission import Request, RequestOutcome
from .config import CacheConfig, ServingConfig, SessionConfig
from .server import QueryServer

__all__ = ["QuerySession", "StreamReport", "open_session"]

#: What session entry points accept as a query.
QueryLike = Union[Atom, str]


@dataclass
class StreamReport:
    """Aggregate outcome of one :meth:`QuerySession.learn_from_stream`."""

    queries: int = 0
    total_cost: float = 0.0
    degraded: int = 0
    climbs: int = 0
    cached: int = 0

    @property
    def mean_cost(self) -> float:
        return self.total_cost / self.queries if self.queries else 0.0


def _coerce_rules(rules: Union[RuleBase, str, os.PathLike]) -> RuleBase:
    if isinstance(rules, (str, os.PathLike)):
        with open(rules, encoding="utf-8") as handle:
            return parse_program(handle.read())
    return rules


def _coerce_database(
    database: Union[Database, str, os.PathLike, None],
) -> Optional[Database]:
    if database is None or isinstance(database, FactStore):
        return database
    with open(database, encoding="utf-8") as handle:
        return Database.from_program(handle.read())


class QuerySession:
    """A configured, concurrent, cache-fronted query-processing session.

    Prefer :func:`open_session` (which also accepts file paths and is
    a context manager) over constructing this directly.
    """

    def __init__(
        self,
        rules: Union[RuleBase, str, os.PathLike],
        database: Union[Database, str, os.PathLike, None] = None,
        *,
        config: Optional[SessionConfig] = None,
        cache: Optional[CacheConfig] = None,
        serving: Optional[ServingConfig] = None,
        recorder: Optional[Recorder] = None,
    ):
        self.rules = _coerce_rules(rules)
        self.database = _coerce_database(database)
        self.config = config or SessionConfig()
        self.processor = SelfOptimizingQueryProcessor(
            self.rules, config=self.config, recorder=recorder
        )
        self.server = QueryServer(
            self.processor,
            serving=serving or ServingConfig(),
            cache=cache or CacheConfig(),
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Flush checkpoints and experience (when configured), then
        refuse further work.

        Session close is when this session's settled outcomes become
        *experience*: each form that processed at least one context
        contributes its current winner to the configured store, where
        the next session's :func:`open_session` can warm-start from
        it.
        """
        if self._closed:
            return
        if self.config.checkpoint_dir is not None:
            self.processor.checkpoint_now()
        if self.processor.experience_store is not None:
            self.processor.contribute_experience()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise ReproError("the session is closed")

    def _resolve_database(self, database: Optional[Database]) -> Database:
        resolved = database if database is not None else self.database
        if resolved is None:
            raise ReproError(
                "no database: pass one to the call or to open_session()"
            )
        return resolved

    @staticmethod
    def _coerce_query(query: QueryLike) -> Atom:
        return parse_query(query) if isinstance(query, str) else query

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def query(
        self, query: QueryLike, database: Optional[Database] = None
    ) -> SystemAnswer:
        """Answer one query (string or :class:`Atom`) through the server."""
        self._require_open()
        return self.server.submit(
            self._coerce_query(query), self._resolve_database(database)
        )

    def query_batch(
        self,
        queries: Sequence[QueryLike],
        database: Optional[Database] = None,
    ) -> List[SystemAnswer]:
        """Answer a batch, sharded by form across the worker pool."""
        self._require_open()
        return self.server.run_batch(
            [self._coerce_query(query) for query in queries],
            self._resolve_database(database),
        )

    def submit_request(
        self,
        request: "Request",
        database: Optional[Database] = None,
    ) -> "RequestOutcome":
        """Admission-controlled single submission (typed outcome)."""
        self._require_open()
        return self.server.submit_request(
            request, self._resolve_database(database)
        )

    def run_requests(
        self,
        requests: Sequence,
        database: Optional[Database] = None,
    ) -> List["RequestOutcome"]:
        """Serve a burst of :class:`~repro.serving.admission.Request`
        objects (or plain queries) through admission control; outcomes
        align with the input order and are never exceptions."""
        self._require_open()
        return self.server.run_requests(
            [request if isinstance(request, Request)
             else Request(self._coerce_query(request))
             for request in requests],
            self._resolve_database(database),
        )

    def drain(self) -> None:
        """Move the server to DRAINING: queued work finishes, new
        requests are rejected.  No-op when admission is off."""
        self.server.drain()

    def learn_from_stream(
        self,
        stream: Union[Iterable[str], str, os.PathLike],
        database: Optional[Database] = None,
        on_answer: Optional[Callable[[int, str, SystemAnswer], None]] = None,
        checkpoint: bool = True,
    ) -> StreamReport:
        """Replay a query stream through the learning processor.

        ``stream`` is a path, an open file, or any iterable of lines;
        blank lines and ``%`` comments are skipped — the same format
        the CLI's ``learn``/``trace`` subcommands read.  ``on_answer``
        (called as ``on_answer(count, text, answer)`` after each
        query) is the seam the CLI uses to echo climbs and
        degradations as they happen.  With ``checkpoint`` (default),
        a configured checkpoint directory gets a final forced
        checkpoint after the stream drains.
        """
        self._require_open()
        resolved = self._resolve_database(database)
        report = StreamReport()
        if isinstance(stream, (str, os.PathLike)):
            with open(stream, encoding="utf-8") as handle:
                return self.learn_from_stream(
                    handle, resolved, on_answer, checkpoint
                )
        for raw in stream:
            text = strip_comment(raw).strip()
            if not text:
                continue
            answer = self.query(text, resolved)
            report.queries += 1
            report.total_cost += answer.cost
            if answer.degraded:
                report.degraded += 1
            if answer.climbed:
                report.climbs += 1
            if answer.cached:
                report.cached += 1
            if on_answer is not None:
                on_answer(report.queries, text, answer)
        if checkpoint and self.config.checkpoint_dir is not None:
            self.processor.checkpoint_now()
        return report

    # ------------------------------------------------------------------
    # Introspection & persistence
    # ------------------------------------------------------------------

    def report(self) -> Dict[str, Dict[str, object]]:
        """The processor's per-form report plus serving/cache counters."""
        summary = self.processor.report()
        summary["serving"] = self.server.snapshot()
        return summary

    def checkpoint(self) -> int:
        """Force a checkpoint of every compiled form; returns how many."""
        self._require_open()
        return self.processor.checkpoint_now()

    def contribute_experience(self) -> int:
        """Flush settled outcomes to the experience store immediately
        (``close`` also does this); returns how many records landed.
        No-op (0) when experience is disabled."""
        self._require_open()
        return self.processor.contribute_experience()


def open_session(
    rules: Union[RuleBase, str, os.PathLike],
    database: Union[Database, str, os.PathLike, None] = None,
    *,
    config: Optional[SessionConfig] = None,
    cache: Optional[CacheConfig] = None,
    serving: Optional[ServingConfig] = None,
    recorder: Optional[Recorder] = None,
) -> QuerySession:
    """Open a :class:`QuerySession` — the one-stop public entry point.

    ``rules`` and ``database`` accept in-memory objects or paths to
    Datalog files.  The three config dataclasses each default to their
    neutral settings: vanilla learning, no caching, one worker.
    """
    return QuerySession(
        rules,
        database,
        config=config,
        cache=cache,
        serving=serving,
        recorder=recorder,
    )
