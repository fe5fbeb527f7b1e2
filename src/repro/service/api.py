"""The campaign service's HTTP/JSON surface (stdlib only).

Small, flat, and cache-shaped:

========  =====================  ==========================================
Method    Path                   Meaning
========  =====================  ==========================================
GET       ``/health``            Daemon liveness + store/pool/executor
                                 telemetry
GET       ``/queue``             Queue depth per state + drain counters +
                                 ETA of the open trials
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
snapshots, so no handler-side locking is needed.

The handler is a :class:`socketserver.StreamRequestHandler` that reads
and writes HTTP/1.1 itself: a request line and its headers, framed
and bounded as the client frames an answer (:mod:`repro.service.client`
holds both ends' readers), then a ``Content-Length`` body of at most
:data:`MAX_BODY_BYTES` (``Expect: 100-continue`` is answered before the
body is read).  An
HTTP/1.1 connection stays open until ``Connection: close``; an HTTP/1.0
one closes after its answer.  Responses are always JSON, a request that
does not parse included: errors carry ``{"error": ...}`` and a
meaningful status code, and an error that leaves the request's bytes
unread or untrusted closes the connection (``Connection: close``).
"""

from __future__ import annotations

import json
import re
import sys
import time
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Type

from repro.store.result_store import trial_to_dict

from repro.service.client import Refusal, read_headers, read_line
from repro.service.submission import (
    plan_submission,
    submission_campaign,
    ticket_results,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from socketserver import StreamRequestHandler

    from repro.service.daemon import CampaignService

#: Submissions larger than this are refused outright (a campaign grid
#: document is a few KB; anything near this bound is a client bug).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds a connection may sit silent, in a body or between requests,
#: before its handler thread gives up on it: a client that announces
#: more body than it sends must not hold a thread forever.
SOCKET_TIMEOUT_SECONDS = 30.0

#: The ``Server`` header of every answer.
SERVER = "repro-bgp-service/1 Python/" + sys.version.split()[0]

#: Reason phrases of the statuses the handler answers.
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    409: "Conflict",
    413: "Request Entity Too Large",
    414: "Request-URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}

_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


def http_date(timestamp: Optional[float] = None) -> str:
    """``timestamp`` (default: now) as an IMF-fixdate, the ``Date``
    header's form, with English names whatever the locale."""
    t = time.gmtime(timestamp)
    return (
        f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
        f"{t.tm_year:04d} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


def make_handler(
    service: "CampaignService",
) -> Type[StreamRequestHandler]:
    """Build the request-handler class bound to one daemon instance."""
    # Imported here, not at module level: importing repro.service must
    # not load the server stack for a process that serves nothing.
    from socketserver import StreamRequestHandler

    class Handler(StreamRequestHandler):
        timeout = SOCKET_TIMEOUT_SECONDS

        # -- plumbing --------------------------------------------------
        def handle(self) -> None:
            try:
                while self._handle_one():
                    pass
            except OSError:
                # The peer hung up, or sat silent past the timeout
                # between requests: there is no one left to answer.
                pass

        def _handle_one(self) -> bool:
            """Answer one request; whether the connection stays open."""
            self.requestline = ""
            self.close_connection = True
            try:
                line = read_line(self.rfile)
                if not line:
                    return False
                self.requestline = line.decode("iso-8859-1").rstrip("\r\n")
                method, self.path, self.http11 = self._parse_request_line()
                self.headers = read_headers(self.rfile)
                connection = self.headers.get("connection", "").lower()
                self.close_connection = not self.http11 or "close" in (
                    token.strip() for token in connection.split(",")
                )
                if method == "GET":
                    self._get()
                elif method == "POST":
                    self._post()
                else:
                    raise Refusal(501, f"unsupported method {method!r}")
            except Refusal as refusal:
                self._send_json(
                    refusal.status, {"error": str(refusal)}, close=True
                )
            return not self.close_connection

        def _parse_request_line(self) -> Tuple[str, str, bool]:
            """``(method, target, is HTTP/1.1)`` of the request line."""
            words = self.requestline.split()
            if len(words) != 3:
                raise Refusal(400, f"bad request line {self.requestline!r}")
            method, target, version = words
            match = _VERSION.fullmatch(version)
            if match is None:
                raise Refusal(400, f"bad HTTP version {version!r}")
            if int(match[1]) != 1:
                raise Refusal(505, f"HTTP version {version!r} not supported")
            return method, target, int(match[2]) >= 1

        def _send_json(
            self, status: int, payload: Dict[str, Any], close: bool = False
        ) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {REASONS[status]}\r\n"
                f"Server: {SERVER}\r\n"
                f"Date: {http_date()}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
            if close:
                head += "Connection: close\r\n"
                self.close_connection = True
            service.log(f'http "{self.requestline}" {status} -')
            self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

        def _error(self, status: int, message: str) -> None:
            self._send_json(status, {"error": message})

        def _read_body(self) -> Optional[Dict[str, Any]]:
            try:
                length = int(self.headers.get("content-length") or 0)
            except ValueError:
                raise Refusal(400, "Content-Length must be an integer")
            if length <= 0:
                raise Refusal(400, "request body required")
            if length > MAX_BODY_BYTES:
                raise Refusal(413, "request body too large")
            expect = self.headers.get("expect", "").lower()
            if self.http11 and expect == "100-continue":
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            try:
                raw = self.rfile.read(length)
            except TimeoutError:
                raw = b""
            if len(raw) < length:
                # Timed out, or the peer hung up, short of Content-Length.
                raise Refusal(408, "request body incomplete")
            try:
                data = json.loads(raw)
            except ValueError:
                self._error(400, "request body is not valid JSON")
                return None
            except RecursionError:
                # Nested deeper than the parser's stack.
                raise Refusal(400, "request body is not valid JSON")
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
        def _get(self) -> None:
            head, tail = self._route(self.path)
            try:
                if head == "health" and not tail:
                    self._send_json(200, service.health())
                elif head == "queue" and not tail:
                    self._send_json(200, service.queue_status())
                elif head == "status" and tail:
                    self._send_json(200, service.ticket_status(tail))
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
        def _post(self) -> None:
            head, tail = self._route(self.path)
            if head != "submit" or tail:
                raise Refusal(404, f"unknown endpoint {self.path!r}")
            if service.stopping:
                raise Refusal(503, "service is draining for shutdown")
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
