"""A thin stdlib HTTP client mirroring the service API 1:1.

>>> client = ServiceClient("http://127.0.0.1:8351")
>>> receipt = client.submit(campaign_doc)
>>> status = client.wait(receipt["ticket"])
>>> series = client.result(receipt["ticket"])["series"]

No third-party dependencies: one :mod:`http.client` connection per
request (``Connection: close``), JSON in and out.  A daemon's error
answer raises :class:`ServiceError` carrying the HTTP status and the
server's ``error`` message; a URL the client cannot use, or a daemon it
cannot reach or that does not answer within ``timeout``, raises one
with status 0.  The client talks to the daemon directly: proxy
variables such as ``http_proxy`` are not read.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Optional
from urllib.parse import urlsplit


class ServiceError(RuntimeError):
    """The service answered with an error (or could not be reached)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(
            f"service error {status}: {message}" if status else message
        )
        self.status = status
        self.message = message


class ServiceClient:
    """Typed access to one campaign-service daemon."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        import http.client

        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        try:
            parts = urlsplit(self.base_url)
            if parts.scheme not in ("http", "https"):
                raise ValueError("scheme is not http(s)")
            if not parts.hostname:
                raise ValueError("no host")
            self._connection_class = (
                http.client.HTTPSConnection
                if parts.scheme == "https"
                else http.client.HTTPConnection
            )
            # The port is explicit, so an IPv6 host is never split at its
            # last colon.
            self._address = (
                parts.hostname,
                parts.port
                if parts.port is not None
                else self._connection_class.default_port,
            )
            # Checks the host; a connection opens nothing until used.
            self._connection_class(*self._address)
        except (ValueError, http.client.InvalidURL) as exc:
            raise ServiceError(
                0, f"bad service URL {base_url!r}: {exc}"
            ) from None
        self._prefix = parts.path

    # -- transport -----------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        import http.client

        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        connection = self._connection_class(
            *self._address, timeout=self.timeout
        )
        try:
            connection.request(
                method,
                self._prefix + path,
                body=data,
                headers={
                    "Content-Type": "application/json",
                    "Connection": "close",
                },
            )
            response = connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(0, f"cannot reach service: {exc}") from exc
        finally:
            connection.close()
        if 200 <= response.status < 300:
            return json.loads(payload)
        message = f"HTTP Error {response.status}: {response.reason}"
        try:
            document = json.loads(payload)
        except ValueError:
            document = None
        if isinstance(document, dict):
            message = document.get("error", message)
        raise ServiceError(response.status, message)

    # -- endpoints -----------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/health")

    def queue_status(self) -> Dict[str, Any]:
        return self._request("GET", "/queue")

    def submit(self, submission: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a campaign grid or single spec; returns the receipt."""
        return self._request("POST", "/submit", body=submission)

    def status(self, ticket: str) -> Dict[str, Any]:
        return self._request("GET", f"/status/{ticket}")

    def result(self, ticket: str) -> Dict[str, Any]:
        """Folded series of a completed ticket (409 -> ServiceError)."""
        return self._request("GET", f"/result/{ticket}")

    def trial(self, key: str) -> Dict[str, Any]:
        """One banked trial + provenance by content hash."""
        return self._request("GET", f"/trial/{key}")

    # -- conveniences --------------------------------------------------
    def wait(
        self,
        ticket: str,
        timeout: float = 600.0,
        poll_interval: float = 0.25,
    ) -> Dict[str, Any]:
        """Poll ``/status`` until the ticket is done (or failed).

        Returns the final status dict; raises :class:`ServiceError` on
        terminal failure or timeout, so callers can treat a clean return
        as "results are ready to fetch".
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(ticket)
            if status["state"] == "done":
                return status
            if status["state"] == "failed":
                raise ServiceError(
                    0,
                    f"ticket {ticket} failed: "
                    f"{status['failed']}/{status['total']} trials "
                    f"terminally failed "
                    f"({json.dumps(status['failures'][:3])})",
                )
            if time.monotonic() >= deadline:
                raise ServiceError(
                    0,
                    f"timed out after {timeout:.0f}s waiting on ticket "
                    f"{ticket} ({status['done']}/{status['total']} done)",
                )
            time.sleep(poll_interval)
