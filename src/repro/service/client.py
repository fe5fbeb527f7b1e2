"""A thin stdlib HTTP client mirroring the service API 1:1.

>>> client = ServiceClient("http://127.0.0.1:8351")
>>> receipt = client.submit(campaign_doc)
>>> status = client.wait(receipt["ticket"])
>>> series = client.result(receipt["ticket"])["series"]

No third-party dependencies: ``urllib.request`` underneath, JSON in
and out, API errors raised as :class:`ServiceError` carrying the HTTP
status and the server's ``error`` message.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Optional


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
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        import urllib.error
        import urllib.request

        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", str(exc))
            except ValueError:
                message = str(exc)
            raise ServiceError(exc.code, message) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach service: {exc.reason}")

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
