"""The request layer: JSON endpoints over the store and worker pool.

:class:`ServiceApp` is the socket-free core of the service — every
endpoint is a method from a parsed JSON payload to a :class:`Response`,
so the whole request surface unit-tests without a server.  The thin
:class:`RequestHandler` at the bottom adapts it onto
``http.server``: it parses bodies, streams NDJSON responses chunked,
probes for client disconnects while a job runs, and routes request
logs through the ``"repro.service"`` logger.

Endpoints::

    POST /v1/graphs      ensure a (scenario, nodes, seed) graph artifact
    POST /v1/workloads   ensure a generated workload; returns its ref
    POST /v1/evaluate    evaluate a UCRPQ (inline text or workload ref);
                         streams the answers as NDJSON rows
    POST   /v1/jobs             submit an evaluate payload as a durable job
    GET    /v1/jobs/{id}        job status (state, attempts, errors)
    GET    /v1/jobs/{id}/result stored NDJSON result; 404 until ready
    DELETE /v1/jobs/{id}        cooperative cancel
    GET  /metrics        NDJSON snapshot of the metrics registry
    GET  /healthz        liveness + queue/cache occupancy

The job endpoints are the async half of evaluation (see
:mod:`repro.service.jobs`): submit validates the payload up front (a
bad request fails now, not as a failed job), returns 202 with the job
id, and the evaluation runs on the same worker pool with retry,
backoff, watchdog, and journal durability.  Status and result polls
stay readable while the service drains — a restart is exactly when a
client needs them.

All generation and evaluation runs on the bounded
:class:`~repro.service.pool.WorkerPool` — handler threads only wait —
so a full queue turns into an immediate 429 + ``Retry-After`` instead
of an ever-deeper pile of work.  Per-request budgets
(``timeout`` / ``max_rows`` / ``max_bytes`` / ``on_budget``) map onto
:class:`~repro.execution.context.ExecutionContext`: a ``partial``-mode
abort streams the incomplete result with ``"complete": false`` plus the
abort record under a 200, a ``raise``-mode abort becomes a 503 with the
:class:`~repro.execution.context.AbortReport` as its body.
"""

from __future__ import annotations

import json
import select
import socket
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler
from typing import Callable, Iterable, Iterator

from repro.engine.evaluator import ENGINES
from repro.errors import (
    EngineBudgetExceeded,
    ExecutionCancelled,
    GmarkError,
    QuerySyntaxError,
)
from repro.execution.budget import CancellationToken
from repro.execution.context import AbortReport
from repro.generation.graph import LabeledGraph
from repro.observability.export import metrics_records, to_ndjson
from repro.observability.log import get_logger
from repro.observability.metrics import METRICS, timed_stage
from repro.queries.workload import Workload
from repro.service.jobs import JobManager
from repro.service.pool import QueueFullError, WorkerPool
from repro.service.protocol import (
    BadRequest,
    budget_from_payload,
    decode_workload_key,
    encode_key,
    graph_key,
    workload_key,
)
from repro.service.store import ArtifactStore
from repro.session import Session

_log = get_logger("service")

#: Seconds between disconnect probes while a handler waits on its job.
#: Completion detection is instant regardless (``Event.wait`` returns
#: the moment the job settles); this only paces the disconnect checks,
#: and a coarse interval keeps the waiting handler threads from
#: stealing GIL slices while a worker generates.
POLL_SECONDS = 0.1

#: ``Retry-After`` hint before any evaluate latency has been observed.
#: A cold service is about to pay a full generation for whoever got the
#: last queue slot, so the honest hint is "a few seconds", not the 1s
#: the degenerate empty-histogram mean used to collapse to.
COLD_RETRY_AFTER_SECONDS = 5.0


@dataclass
class GraphArtifact:
    """A cached instance: the session that owns it plus the graph."""

    key: tuple
    session: Session
    graph: LabeledGraph

    @property
    def nbytes(self) -> int:
        """Resident footprint charged to the store's byte bound."""
        return self.graph.nbytes

    def describe(self) -> dict:
        stats = self.graph.statistics()
        _, scenario, nodes, seed = self.key
        return {
            "scenario": scenario,
            "nodes": nodes,
            "seed": seed,
            "graph_nodes": stats.nodes,
            "graph_edges": stats.edges,
        }


@dataclass
class WorkloadArtifact:
    """A cached generated workload plus its reference key."""

    key: tuple
    workload: Workload

    @property
    def nbytes(self) -> int:
        """Rough footprint: the query texts dominate a workload."""
        return sum(
            len(generated.query.to_text()) for generated in self.workload
        )

    def describe(self) -> dict:
        return {
            "count": len(self.workload),
            "queries": [
                {
                    "index": index,
                    "query": generated.query.to_text(),
                    "shape": generated.shape.value,
                    "selectivity": (
                        generated.selectivity.value
                        if generated.selectivity else None
                    ),
                    "recursive": generated.query.has_recursion,
                }
                for index, generated in enumerate(self.workload)
            ],
        }


@dataclass
class Response:
    """One endpoint result: a JSON body or an NDJSON stream."""

    status: int
    payload: dict | None = None
    stream: Iterator[str] | None = None
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, status: int, payload: dict, **headers: str) -> "Response":
        return cls(status, payload=payload, headers=dict(headers))

    @classmethod
    def ndjson(cls, stream: Iterator[str], status: int = 200) -> "Response":
        return cls(status, stream=stream, content_type="application/x-ndjson")

    def body_bytes(self) -> bytes:
        assert self.payload is not None
        return (json.dumps(self.payload, sort_keys=True) + "\n").encode("utf-8")


class ServiceApp:
    """Routing core: endpoints over one store and one worker pool."""

    def __init__(
        self,
        store: ArtifactStore | None = None,
        pool: WorkerPool | None = None,
        *,
        default_timeout: float = 60.0,
        journal_path: str | None = None,
        max_retries: int = 3,
        watchdog_seconds: float | None = None,
    ):
        self.store = store if store is not None else ArtifactStore()
        self.pool = pool if pool is not None else WorkerPool()
        self.default_timeout = default_timeout
        self.jobs = JobManager(
            self.pool,
            self._job_runner,
            journal_path=journal_path,
            max_retries=max_retries,
            watchdog_seconds=watchdog_seconds,
        )
        self._draining = threading.Event()

    # -- lifecycle -----------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self) -> None:
        """Refuse new work; in-flight requests keep running."""
        self._draining.set()

    # -- artifacts -----------------------------------------------------

    def _graph_artifact(self, key: tuple) -> tuple[GraphArtifact, bool]:
        _, scenario, nodes, seed = key

        def factory() -> GraphArtifact:
            session = Session.from_scenario(scenario, nodes, seed=seed)
            return GraphArtifact(key, session, session.graph())

        return self.store.get_or_create(key, factory)

    def _workload_artifact(self, key: tuple) -> tuple[WorkloadArtifact, bool]:
        _, scenario, nodes, seed, workload_seed, size, recursion = key

        def factory() -> WorkloadArtifact:
            session = Session.from_scenario(scenario, nodes, seed=seed)
            workload = session.workload(
                size=size,
                seed=workload_seed,
                recursion_probability=recursion,
            )
            return WorkloadArtifact(key, workload)

        return self.store.get_or_create(key, factory)

    # -- pool plumbing -------------------------------------------------

    def _retry_after(self) -> float:
        """Retry-After hint from observed evaluate latency (>= 1s).

        Cold start — nothing observed yet — falls back to
        :data:`COLD_RETRY_AFTER_SECONDS` instead of the empty
        histogram's degenerate 0.0 mean.
        """
        histogram = METRICS.histogram("service.request.evaluate.seconds")
        if histogram.count == 0:
            return COLD_RETRY_AFTER_SECONDS
        return max(1.0, round(histogram.mean, 1))

    def _run_job(
        self,
        thunk: Callable[[], object],
        token: CancellationToken,
        should_cancel: Callable[[], bool] | None,
    ):
        """Submit to the pool and wait; backpressure raises through."""
        job = self.pool.submit(
            thunk, token=token, retry_after_seconds=self._retry_after()
        )
        job.wait(POLL_SECONDS, should_cancel=should_cancel)
        if job.error is not None:
            raise job.error
        if job.cancelled and not job.started:
            raise ExecutionCancelled("request cancelled before execution")
        return job.result

    # -- endpoints -----------------------------------------------------

    def post_graphs(self, payload: dict, should_cancel=None) -> Response:
        key = graph_key(payload)
        token = CancellationToken()
        artifact, hit = self._run_job(
            lambda: self._graph_artifact(key), token, should_cancel
        )
        return Response.json(200, {
            "key": encode_key(key),
            "generated": not hit,
            "graph": artifact.describe(),
        })

    def post_workloads(self, payload: dict, should_cancel=None) -> Response:
        key = workload_key(payload)
        token = CancellationToken()
        artifact, hit = self._run_job(
            lambda: self._workload_artifact(key), token, should_cancel
        )
        return Response.json(200, {
            "key": encode_key(key),
            "generated": not hit,
            "workload": artifact.describe(),
        })

    def _resolve_query(self, payload: dict) -> tuple[tuple, str]:
        """``(graph_key, ucrpq_text)`` from an inline query or a ref."""
        if "workload" in payload:
            key = decode_workload_key(payload["workload"])
            artifact = self.store.peek(key)
            if artifact is None:
                raise BadRequest(
                    f"unknown workload reference {payload['workload']!r}; "
                    "POST /v1/workloads first", status=404,
                )
            index = payload.get("index", 0)
            if not isinstance(index, int) or isinstance(index, bool) or \
                    not 0 <= index < len(artifact.workload):
                raise BadRequest(
                    f"workload index {index!r} out of range "
                    f"[0, {len(artifact.workload)})", status=404,
                )
            _, scenario, nodes, seed = key[:4]
            return (("graph", scenario, nodes, seed),
                    artifact.workload[index].query.to_text())
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            raise BadRequest("provide 'query' (UCRPQ text) or 'workload' (ref)")
        return graph_key(payload), query

    def _check_engine(self, payload: dict) -> str:
        engine = payload.get("engine", "datalog")
        if engine not in ENGINES:
            raise BadRequest(
                f"unknown engine {engine!r}; available: {sorted(ENGINES)} "
                f"(aliases: {sorted(ENGINES.aliases())})"
            )
        return engine

    def _evaluate_payload(self, payload: dict, token: CancellationToken):
        """The one evaluate path: ``(context, run)`` for an evaluate payload.

        The payload is validated *now* (query or workload reference,
        engine, budget fields), so a bad request never reaches the
        pool; ``run()`` — the part that belongs on a pool worker —
        resolves the graph artifact, evaluates under ``context`` and
        returns the :class:`ResultSet`.
        """
        key, query_text = self._resolve_query(payload)
        engine = self._check_engine(payload)
        context = budget_from_payload(payload, self.default_timeout, token)

        def run():
            artifact, _ = self._graph_artifact(key)
            query = artifact.session.query(query_text)
            result = artifact.session.evaluate(query, engine, budget=context)
            if not result.complete:
                METRICS.counter("service.request.partial").inc()
            return result

        return context, run

    def post_evaluate(self, payload: dict, should_cancel=None) -> Response:
        token = CancellationToken()
        context, run = self._evaluate_payload(payload, token)
        try:
            result = self._run_job(run, token, should_cancel)
        except (QuerySyntaxError,) as exc:
            raise BadRequest(str(exc)) from exc
        except EngineBudgetExceeded as exc:
            # raise-mode abort: the report *is* the response body.
            report = AbortReport.from_exception(
                exc, peak_bytes=context.peak_bytes, events=context.events
            )
            return Response.json(503, report.to_dict(), **{"Retry-After": "1"})
        return Response.ndjson(result.iter_ndjson())

    # -- jobs (the durable submit/poll half of evaluation) -------------

    def _job_runner(self, payload: dict, token: CancellationToken) -> str:
        """Execute one job attempt: evaluate the payload to NDJSON text.

        Runs on a pool worker under the :class:`JobManager`'s retry
        policy; the token is the job's, so ``DELETE /v1/jobs/{id}`` and
        the watchdog stop the evaluation at its next budget yield point.
        """
        _, run = self._evaluate_payload(payload, token)
        return "".join(run().iter_ndjson())

    def post_jobs(self, payload: dict, should_cancel=None) -> Response:
        """Submit an evaluate payload as a durable job (202 + job id).

        The payload is validated *now* — an unknown scenario, engine, or
        workload ref is a 4xx at submit time, not a failed job later.
        Re-submitting an identical payload returns the existing job.
        """
        key, _ = self._resolve_query(payload)  # raises BadRequest early
        self._check_engine(payload)
        budget_from_payload(payload, self.default_timeout, CancellationToken())
        if "workload" not in payload:
            # Normalise so byte-different spellings of the same graph
            # reference (alias scenario names, explicit default seed)
            # still deduplicate; the canonical key is what runs anyway.
            _, scenario, nodes, seed = key
            payload = {**payload, "scenario": scenario, "nodes": nodes,
                       "seed": seed}
        record, created = self.jobs.submit(payload)
        return Response.json(202 if created else 200, {
            **record.describe(),
            "created": created,
            "location": f"/v1/jobs/{record.job_id}",
        })

    def get_job(self, job_id: str, payload: dict = None,
                should_cancel=None) -> Response:
        record = self.jobs.get(job_id)
        if record is None:
            return Response.json(404, {"error": f"unknown job {job_id!r}"})
        return Response.json(200, record.describe())

    def get_job_result(self, job_id: str, payload: dict = None,
                       should_cancel=None) -> Response:
        """The job's stored NDJSON result; 404 (with a hint) until ready."""
        record = self.jobs.get(job_id)
        if record is None:
            return Response.json(404, {"error": f"unknown job {job_id!r}"})
        if record.state == "succeeded":
            stream = self.jobs.result_stream(job_id)
            assert stream is not None
            return Response.ndjson(stream)
        if record.state == "failed":
            return Response.json(500, record.describe())
        if record.state == "cancelled":
            return Response.json(410, record.describe())
        retry_after = max(1, int(round(self._retry_after())))
        return Response(
            404,
            payload={**record.describe(), "error": "result not ready"},
            headers={"Retry-After": str(retry_after)},
        )

    def delete_job(self, job_id: str, payload: dict = None,
                   should_cancel=None) -> Response:
        record = self.jobs.cancel(job_id)
        if record is None:
            return Response.json(404, {"error": f"unknown job {job_id!r}"})
        return Response.json(200, record.describe())

    def get_metrics(self, payload: dict = None, should_cancel=None) -> Response:
        text = to_ndjson(metrics_records(METRICS))
        stream = iter([text + "\n"] if text else [])
        return Response.ndjson(stream)

    def get_healthz(self, payload: dict = None, should_cancel=None) -> Response:
        status = "draining" if self.draining else "ok"
        return Response.json(503 if self.draining else 200, {
            "status": status,
            "queue_depth": self.pool.depth,
            "inflight": self.pool.inflight,
            "cache_entries": len(self.store),
            "cache_bytes": self.store.total_bytes,
            "jobs_active": int(
                METRICS.gauge("service.jobs.active").value
            ),
        })

    # -- dispatch ------------------------------------------------------

    ROUTES: dict[tuple[str, str], str] = {
        ("POST", "/v1/graphs"): "graphs",
        ("POST", "/v1/workloads"): "workloads",
        ("POST", "/v1/evaluate"): "evaluate",
        ("POST", "/v1/jobs"): "jobs",
        ("GET", "/metrics"): "metrics",
        ("GET", "/healthz"): "healthz",
    }

    _ENDPOINTS = {
        "graphs": post_graphs,
        "workloads": post_workloads,
        "evaluate": post_evaluate,
        "jobs": post_jobs,
        "metrics": get_metrics,
        "healthz": get_healthz,
    }

    #: Dynamic job routes: (method, suffix-after-id) -> (name, endpoint).
    _JOB_ROUTES = {
        ("GET", None): ("job_status", get_job),
        ("DELETE", None): ("job_cancel", delete_job),
        ("GET", "result"): ("job_result", get_job_result),
    }

    #: Read-only endpoints that stay available while draining — a
    #: restarting client's whole recourse is to keep polling its job.
    _DRAIN_SAFE = frozenset({"metrics", "healthz", "job_status", "job_result"})

    def _route(self, method: str, path: str):
        """``(name, endpoint, extra_args)`` for a request, or None."""
        name = self.ROUTES.get((method, path))
        if name is not None:
            return name, self._ENDPOINTS[name], ()
        parts = [part for part in path.split("/") if part]
        if len(parts) in (3, 4) and parts[:2] == ["v1", "jobs"]:
            suffix = parts[3] if len(parts) == 4 else None
            matched = self._JOB_ROUTES.get((method, suffix))
            if matched is not None:
                name, endpoint = matched
                return name, endpoint, (parts[2],)
        return None

    def handle(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        should_cancel: Callable[[], bool] | None = None,
    ) -> Response:
        """Route one request; every error becomes a JSON response."""
        routed = self._route(method, path)
        if routed is None:
            return Response.json(404, {"error": f"no route {method} {path}"})
        name, endpoint, extra = routed
        if self.draining and name not in self._DRAIN_SAFE:
            return Response.json(503, {"error": "service is draining"})
        try:
            with timed_stage(f"service.request.{name}"):
                return endpoint(self, *extra, payload or {}, should_cancel)
        except BadRequest as exc:
            return Response.json(exc.status, {"error": str(exc)})
        except QueueFullError as exc:
            retry_after = max(1, int(round(exc.retry_after_seconds)))
            return Response.json(
                429,
                {"error": str(exc), "queued": exc.depth},
                **{"Retry-After": str(retry_after)},
            )
        except ExecutionCancelled as exc:
            # The client is gone (or shutdown cancelled the job): there
            # is nobody to answer, but return a response so direct
            # callers (tests, drain paths) see a defined outcome.
            return Response.json(499, {"error": str(exc)})
        except GmarkError as exc:
            return Response.json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — the service must stay up
            _log.exception("internal error on %s %s", method, path)
            METRICS.counter("service.request.errors").inc()
            return Response.json(500, {"error": f"{type(exc).__name__}: {exc}"})


class RequestHandler(BaseHTTPRequestHandler):
    """``http.server`` adapter: bodies in, JSON/chunked-NDJSON out."""

    protocol_version = "HTTP/1.1"
    server_version = "gmark-service/1.0"
    # An unbuffered wfile (the http.server default) sends every header
    # line and chunk frame as its own TCP segment, and Nagle + delayed
    # ACK then stalls each small response ~40ms.  Buffer the writes and
    # disable Nagle; handle_one_request() flushes after every response,
    # and _send() flushes per chunk to keep NDJSON delivery incremental.
    wbufsize = 1 << 16
    disable_nagle_algorithm = True

    @property
    def app(self) -> ServiceApp:
        return self.server.app  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------

    def _read_payload(self) -> dict:
        from repro.service.protocol import MAX_BODY_BYTES

        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise BadRequest(f"request body over {MAX_BODY_BYTES} bytes",
                             status=413)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"malformed JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    def _client_gone(self) -> bool:
        """True when the peer closed its end (EOF on a readable socket)."""
        try:
            readable, _, _ = select.select([self.connection], [], [], 0)
            if not readable:
                return False
            return self.connection.recv(1, socket.MSG_PEEK) == b""
        except OSError:
            return True

    def _send(self, response: Response) -> None:
        if response.stream is None:
            body = response.body_bytes()
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
            return
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Transfer-Encoding", "chunked")
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        for chunk in response.stream:
            data = chunk.encode("utf-8")
            if not data:
                continue
            self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
            self.wfile.write(data)
            self.wfile.write(b"\r\n")
            self.wfile.flush()  # each chunk reaches the client promptly
        self.wfile.write(b"0\r\n\r\n")

    def _dispatch(self, method: str) -> None:
        try:
            try:
                payload = self._read_payload() if method == "POST" else {}
            except BadRequest as exc:
                response = Response.json(exc.status, {"error": str(exc)})
            else:
                response = self.app.handle(
                    method, self.path, payload, should_cancel=self._client_gone
                )
            if response.status == 499:  # client went away; nothing to write
                self.close_connection = True
                return
            self._send(response)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("DELETE")

    # -- logging -------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _log.info("%s %s", self.address_string(), format % args)

    def log_request(self, code="-", size="-") -> None:
        METRICS.counter("service.request.count").inc()
        _log.info(
            "%s %s -> %s", self.command, self.path,
            code.value if hasattr(code, "value") else code,
        )
