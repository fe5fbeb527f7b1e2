"""The campaign service's HTTP/JSON surface (stdlib only).

Small, flat, and cache-shaped:

========  =====================  ==========================================
Method    Path                   Meaning
========  =====================  ==========================================
GET       ``/health``            Daemon liveness + store/pool/executor
                                 telemetry
GET       ``/queue``             Queue depth per state + drain counters +
                                 live ETA
POST      ``/submit``            Campaign grid or single spec; responds
                                 with a :class:`SubmissionReceipt` (fully
                                 cached submissions are complete instantly)
GET       ``/status/<ticket>``   Per-ticket progress + ETA
GET       ``/result/<ticket>``   Folded series of a completed ticket
                                 (409 while trials are in flight)
GET       ``/trial/<key>``       One banked trial + provenance — the
                                 instant content-hash lookup path
========  =====================  ==========================================

Handlers run on the daemon's :class:`socketserver.ThreadingTCPServer`
threads, one per connection, and touch shared state only through the
backend (internally locked) and the daemon's thread-safe telemetry
snapshots, so no handler-side locking is needed.  Responses are always
JSON; errors carry ``{"error": ...}`` and a meaningful status code.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Type

from repro.store.result_store import trial_to_dict

from repro.service.submission import (
    plan_submission,
    submission_campaign,
    ticket_results,
    ticket_status,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from http.server import BaseHTTPRequestHandler

    from repro.service.daemon import CampaignService

#: Submissions larger than this are refused outright (a campaign grid
#: document is a few KB; anything near this bound is a client bug).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds a connection may sit silent, in a body or between requests,
#: before its handler thread gives up on it: a client that announces
#: more body than it sends must not hold a thread forever.
SOCKET_TIMEOUT_SECONDS = 30.0


def make_handler(
    service: "CampaignService",
) -> Type[BaseHTTPRequestHandler]:
    """Build the request-handler class bound to one daemon instance."""
    # Imported here, not at module level: importing repro.service must
    # not load the HTTP stack for a process that serves nothing.
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-bgp-service/1"
        protocol_version = "HTTP/1.1"
        timeout = SOCKET_TIMEOUT_SECONDS

        # -- plumbing --------------------------------------------------
        def log_message(self, fmt: str, *args: Any) -> None:
            service.log_request_line(fmt % args)

        def _send_json(
            self, status: int, payload: Dict[str, Any], close: bool = False
        ) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                # Also sets self.close_connection.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _error(self, status: int, message: str) -> None:
            self._send_json(status, {"error": message})

        def _refuse(self, status: int, message: str) -> None:
            """Answer an error and close the connection after it: where
            the body is left unread, its bytes would otherwise parse as
            the next request."""
            self._send_json(status, {"error": message}, close=True)

        def _read_body(self) -> Optional[Dict[str, Any]]:
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                self._refuse(400, "Content-Length must be an integer")
                return None
            if length <= 0:
                self._refuse(400, "request body required")
                return None
            if length > MAX_BODY_BYTES:
                self._refuse(413, "request body too large")
                return None
            try:
                data = json.loads(self.rfile.read(length))
            except TimeoutError:
                self._refuse(408, "request body incomplete")
                return None
            except ValueError:
                self._error(400, "request body is not valid JSON")
                return None
            except RecursionError:
                # Nested deeper than the parser's stack.
                self._refuse(400, "request body is not valid JSON")
                return None
            if not isinstance(data, dict):
                self._error(400, "request body must be a JSON object")
                return None
            return data

        @staticmethod
        def _route(path: str) -> Tuple[str, str]:
            path = path.split("?", 1)[0].rstrip("/") or "/"
            head, _, tail = path.lstrip("/").partition("/")
            return head, tail

        # -- GET -------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
            head, tail = self._route(self.path)
            try:
                if head == "health" and not tail:
                    self._send_json(200, service.health())
                elif head == "queue" and not tail:
                    self._send_json(200, service.queue_status())
                elif head == "status" and tail:
                    status = ticket_status(tail, service.backend)
                    service.annotate_eta(status)
                    self._send_json(200, status)
                elif head == "result" and tail:
                    self._send_json(
                        200, ticket_results(tail, service.backend)
                    )
                elif head == "trial" and tail:
                    trial = service.backend.get(tail)
                    if trial is None:
                        self._error(404, f"no trial banked under {tail}")
                    else:
                        self._send_json(
                            200,
                            {
                                "key": tail,
                                "trial": trial_to_dict(trial),
                                "provenance": service.backend.provenance(
                                    tail
                                ),
                            },
                        )
                else:
                    self._error(404, f"unknown endpoint {self.path!r}")
            except KeyError as exc:
                self._error(404, str(exc.args[0]) if exc.args else "not found")
            except ValueError as exc:
                # ticket_results while trials are in flight
                self._error(409, str(exc))
            except Exception as exc:  # noqa: BLE001 - surface, don't die
                self._error(500, f"{type(exc).__name__}: {exc}")

        # -- POST ------------------------------------------------------
        def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
            head, tail = self._route(self.path)
            if head != "submit" or tail:
                self._refuse(404, f"unknown endpoint {self.path!r}")
                return
            if service.stopping:
                self._refuse(503, "service is draining for shutdown")
                return
            body = self._read_body()
            if body is None:
                return
            try:
                campaign = submission_campaign(body)
                receipt = plan_submission(campaign, service.backend)
            except (ValueError, KeyError, TypeError) as exc:
                self._error(400, f"invalid submission: {exc}")
                return
            except Exception as exc:  # noqa: BLE001 - surface, don't die
                self._error(500, f"{type(exc).__name__}: {exc}")
                return
            service.note_submission(receipt)
            self._send_json(202 if not receipt.complete else 200,
                            receipt.to_dict())

    return Handler
