"""A thin stdlib HTTP client mirroring the service API 1:1.

>>> client = ServiceClient("http://127.0.0.1:8351")
>>> receipt = client.submit(campaign_doc)
>>> status = client.wait(receipt["ticket"])
>>> series = client.result(receipt["ticket"])["series"]

No third-party dependencies, and no HTTP library either: one
:func:`socket.create_connection` per request (``Connection: close``),
JSON in and out; the response is its status line, its headers and a
body of ``Content-Length`` bytes (or up to EOF without one).  An ASCII
host goes to the resolver as bytes, so no IDNA codec loads, and
:mod:`ssl` loads only for an ``https://`` URL.

The HTTP/1.x framing both ends read lives here, and the daemon's
handler (:mod:`repro.service.api`) imports it: :func:`read_line` and
:func:`read_headers`, bounded by :data:`MAX_LINE_BYTES` and
:data:`MAX_HEADERS`, refuse what does not frame with a :class:`Refusal`
carrying the status a server answers it with.

A daemon's error answer raises :class:`ServiceError` carrying the HTTP
status and the server's ``error`` message (``HTTP Error {status}:
{reason}`` when the body is not a JSON object).  Any other failure —
an unusable URL, connect, send, a timeout, an answer that does not
frame, a 2xx body that is not a JSON object — raises one with status 0.
The client talks to the daemon directly: proxy variables such as
``http_proxy`` are not read.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, BinaryIO, Dict, Optional, Tuple
from urllib.parse import urlsplit

#: The longest request, status or header line, and the most header
#: lines, a message may carry, at either end of the service.
MAX_LINE_BYTES = 64 * 1024
MAX_HEADERS = 100


class ServiceError(RuntimeError):
    """The service answered with an error (or could not be reached)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(
            f"service error {status}: {message}" if status else message
        )
        self.status = status
        self.message = message


class Refusal(Exception):
    """A message refused, with the status a server answers it with;
    the connection then closes, as its remaining bytes are unread or
    cannot be trusted to frame the next message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _has_control(text: str) -> bool:
    """Whether ``text`` holds a space or control character, which would
    split a request line or a header."""
    return any(ch <= " " or ch == "\x7f" for ch in text)


def read_line(stream: BinaryIO, status: int = 414) -> bytes:
    """One line of ``stream`` (``b""`` at its end); a line over
    :data:`MAX_LINE_BYTES` is a :class:`Refusal` with ``status`` (a
    request line's 414 by default)."""
    line = stream.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise Refusal(status, f"line over {MAX_LINE_BYTES} bytes")
    return line


def read_headers(stream: BinaryIO) -> Dict[str, str]:
    """The header lines of a message, up to its blank line, by
    lower-cased name (the first of a repeated name wins).  A line over
    the bound or more than :data:`MAX_HEADERS` lines is a 431, a line
    without a colon or with a space-padded name a 400."""
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = read_line(stream, 431)
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if not colon or not name or name != name.strip():
            raise Refusal(400, f"bad header line {line[:80]!r}")
        headers.setdefault(name.lower(), value.strip())
    raise Refusal(431, f"more than {MAX_HEADERS} headers")


def _read_response(stream: BinaryIO) -> Tuple[int, str, bytes]:
    """``(status, reason, body)`` of one HTTP/1.x answer on ``stream``;
    ``ValueError`` or :class:`Refusal` when it does not parse."""
    line = read_line(stream)
    if not line:
        raise ValueError("Remote end closed connection without response")
    version, _, rest = line.decode("iso-8859-1").rstrip("\r\n").partition(" ")
    code, _, reason = rest.partition(" ")
    if not version.startswith("HTTP/1.") or not (
        len(code) == 3 and code.isdigit()
    ):
        raise ValueError(f"bad status line {line[:80]!r}")
    length = read_headers(stream).get("content-length")
    if length is None:
        return int(code), reason, stream.read()
    if not (length.isascii() and length.isdigit()):
        raise ValueError(f"bad Content-Length {length[:80]!r}")
    size = int(length)
    body = stream.read(size)
    if len(body) < size:
        raise ValueError(
            f"answer body incomplete ({len(body)} of {size} bytes)"
        )
    return int(code), reason, body


def _json_object(payload: bytes) -> Optional[Dict[str, Any]]:
    """``payload`` as a JSON object, or ``None`` when it is not one."""
    try:
        document = json.loads(payload)
    except (ValueError, RecursionError):
        return None
    return document if isinstance(document, dict) else None


class ServiceClient:
    """Typed access to one campaign-service daemon."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        try:
            parts = urlsplit(self.base_url)
            if parts.scheme not in ("http", "https"):
                raise ValueError("scheme is not http(s)")
            host = parts.hostname
            if not host:
                raise ValueError("no host")
            if _has_control(host):
                raise ValueError(
                    f"host {host!r} holds a space or control character"
                )
            default_port = 443 if parts.scheme == "https" else 80
            port = parts.port if parts.port is not None else default_port
            # Bytes, so that resolving an ASCII host loads no IDNA codec.
            encoded = (
                host.encode("ascii") if host.isascii() else host.encode("idna")
            )
        except ValueError as exc:
            raise ServiceError(
                0, f"bad service URL {base_url!r}: {exc}"
            ) from None
        self._https = parts.scheme == "https"
        self._hostname = host
        self._address = (encoded, port)
        host_header = encoded.decode("ascii")
        if ":" in host_header:
            host_header = f"[{host_header}]"
        if port != default_port:
            host_header += f":{port}"
        self._host_header = host_header
        self._prefix = parts.path

    # -- transport -----------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        target = self._prefix + path
        if not target.isascii() or _has_control(target):
            raise ServiceError(
                0, f"cannot reach service: bad request path {target!r}"
            )
        head = (
            f"{method} {target} HTTP/1.1\r\n"
            f"Host: {self._host_header}\r\n"
            "Content-Type: application/json\r\n"
            "Connection: close\r\n"
        )
        data = b""
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            head += f"Content-Length: {len(data)}\r\n"
        try:
            sock = socket.create_connection(self._address, self.timeout)
            if self._https:
                import ssl

                sock = ssl.create_default_context().wrap_socket(
                    sock, server_hostname=self._hostname
                )
            with sock, sock.makefile("rb") as stream:
                sock.sendall(head.encode("ascii") + b"\r\n" + data)
                status, reason, payload = _read_response(stream)
            document = _json_object(payload)
            if 200 <= status < 300 and document is None:
                raise ValueError(
                    f"a {status} answer whose body is not a JSON object"
                )
        except (OSError, ValueError, Refusal) as exc:
            raise ServiceError(0, f"cannot reach service: {exc}") from exc
        if 200 <= status < 300:
            return document
        message = f"HTTP Error {status}: {reason}"
        if document is not None:
            message = document.get("error", message)
        raise ServiceError(status, message)

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
