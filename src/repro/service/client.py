"""Stdlib retrying client for the gmark service.

:class:`ServiceClient` is the counterpart of the server's backpressure
and reliability contract, written against nothing but ``http.client``:

* **429 + Retry-After** — a full worker queue is not an error, it is a
  scheduling hint; the client sleeps the server's hint (capped) and
  retries, up to ``max_retries`` attempts;
* **503** — a draining or overloaded service gets the same treatment
  with capped exponential backoff (plus ``Retry-After`` when present);
* **connection errors** — a refused/reset/half-closed connection (the
  window where a service is restarting) reconnects and retries with
  backoff.  Combined with the durable job API this is what makes a
  restart invisible to a polling client: the job id survives in the
  journal, and the client survives the connection gap;
* **keep-alive** — one underlying connection is reused across calls
  (HTTP/1.1), reconnecting lazily after any failure.

The retry loop only re-sends requests that are safe to repeat: every
endpoint here is either read-only or idempotent (``POST /v1/jobs``
deduplicates by payload digest server-side), so a retried submit can
never double-run work.

Used by ``gmark jobs``, the performance ledger's serving workloads, and
the CI restart-recovery smoke.
"""

from __future__ import annotations

import http.client
import json
import random
import time

from repro.observability.log import get_logger

_log = get_logger("service.client")

#: Statuses that mean "try again later", never "you are wrong".
RETRYABLE_STATUSES = (429, 503)


class ServiceUnavailable(RuntimeError):
    """Raised when retries are exhausted against a retryable condition."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class JobFailed(RuntimeError):
    """Raised by :meth:`ServiceClient.wait_for_job` on a terminal
    non-success state; carries the job's describe() payload."""

    def __init__(self, job: dict):
        super().__init__(
            f"job {job.get('job_id')} {job.get('state')}: "
            f"{job.get('error') or 'no error recorded'}"
        )
        self.job = job


class ServiceClient:
    """One keep-alive connection with retry/backoff discipline."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8090,
        *,
        timeout: float = 300.0,
        max_retries: int = 5,
        backoff_base: float = 0.2,
        backoff_cap: float = 5.0,
        rng: random.Random | None = None,
        sleep=time.sleep,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._conn: http.client.HTTPConnection | None = None

    # -- transport -----------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def _backoff(self, attempt: int, retry_after: str | None) -> float:
        """Seconds to sleep before retry ``attempt`` (1-based)."""
        delay = min(
            self.backoff_cap, self.backoff_base * (2 ** (attempt - 1))
        )
        if retry_after:
            try:
                # Honor the server's hint, but never beyond our cap —
                # a confused server must not park the client forever.
                delay = min(max(delay, float(retry_after)), self.backoff_cap)
            except ValueError:
                pass
        return delay * (1.0 + 0.25 * self._rng.random())

    def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict, bytes]:
        """``(status, headers, body)`` after the retry discipline.

        Retries 429/503 (honoring ``Retry-After``) and connection-level
        failures; any other status — success or client error — is
        returned to the caller as-is.
        """
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        last_error: str | None = None
        last_status: int | None = None
        for attempt in range(1, self.max_retries + 2):
            retry_after = None
            try:
                conn = self._connection()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                if response.status not in RETRYABLE_STATUSES:
                    return response.status, dict(response.getheaders()), data
                retry_after = response.getheader("Retry-After")
                last_status = response.status
                last_error = data.decode("utf-8", "replace").strip()
            except (OSError, http.client.HTTPException) as exc:
                self._drop_connection()
                last_status = None
                last_error = f"{type(exc).__name__}: {exc}"
            if attempt > self.max_retries:
                break
            delay = self._backoff(attempt, retry_after)
            _log.info(
                "%s %s retry %d/%d in %.2fs (%s)",
                method, path, attempt, self.max_retries, delay,
                last_status or last_error,
            )
            self._sleep(delay)
        raise ServiceUnavailable(
            f"{method} {path} failed after {self.max_retries} retries: "
            f"{last_error}", status=last_status,
        )

    def request_json(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        status, _, data = self.request(method, path, payload)
        try:
            decoded = json.loads(data) if data else {}
        except json.JSONDecodeError:
            decoded = {"raw": data.decode("utf-8", "replace")}
        return status, decoded

    # -- endpoints -----------------------------------------------------

    def healthz(self) -> dict:
        return self.request_json("GET", "/healthz")[1]

    def ensure_graph(self, scenario: str, nodes: int, seed: int = 0) -> dict:
        status, body = self.request_json(
            "POST", "/v1/graphs",
            {"scenario": scenario, "nodes": nodes, "seed": seed},
        )
        if status != 200:
            raise ServiceUnavailable(
                f"graph ensure failed ({status}): {body}", status=status
            )
        return body

    def evaluate(self, payload: dict) -> tuple[int, bytes]:
        """Synchronous evaluation; ``(status, ndjson_bytes)``."""
        status, _, data = self.request("POST", "/v1/evaluate", payload)
        return status, data

    # -- jobs ----------------------------------------------------------

    def submit_job(self, payload: dict) -> dict:
        status, body = self.request_json("POST", "/v1/jobs", payload)
        if status not in (200, 202):
            raise ServiceUnavailable(
                f"job submit failed ({status}): {body}", status=status
            )
        return body

    def job_status(self, job_id: str) -> dict:
        status, body = self.request_json("GET", f"/v1/jobs/{job_id}")
        if status != 200:
            raise ServiceUnavailable(
                f"job status failed ({status}): {body}", status=status
            )
        return body

    def job_result(self, job_id: str) -> tuple[int, bytes]:
        """``(status, body)`` — 200 + NDJSON when ready, 404 until then."""
        status, _, data = self.request("GET", f"/v1/jobs/{job_id}/result")
        return status, data

    def cancel_job(self, job_id: str) -> dict:
        return self.request_json("DELETE", f"/v1/jobs/{job_id}")[1]

    def wait_for_job(
        self, job_id: str, *, timeout: float = 600.0, poll: float = 0.2
    ) -> dict:
        """Poll until the job settles; the terminal describe() payload.

        Raises :class:`JobFailed` on ``failed``/``cancelled`` and
        :class:`ServiceUnavailable` when ``timeout`` elapses first.
        Connection gaps (a restarting server) are absorbed by the
        transport retries underneath each poll.
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.job_status(job_id)
            state = job.get("state")
            if state == "succeeded":
                return job
            if state in ("failed", "cancelled"):
                raise JobFailed(job)
            if time.monotonic() >= deadline:
                raise ServiceUnavailable(
                    f"job {job_id} still {state!r} after {timeout}s"
                )
            self._sleep(poll)

    def fetch_result(
        self, job_id: str, *, timeout: float = 600.0, poll: float = 0.2
    ) -> bytes:
        """Wait for success, then the stored NDJSON result bytes."""
        self.wait_for_job(job_id, timeout=timeout, poll=poll)
        status, data = self.job_result(job_id)
        if status != 200:
            raise ServiceUnavailable(
                f"result fetch failed ({status})", status=status
            )
        return data

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ServiceClient({self.host}:{self.port})"
