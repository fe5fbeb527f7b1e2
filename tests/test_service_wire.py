"""Fuzz tests of the HTTP/1.x framing both ends of the campaign service
read (:func:`repro.service.client.read_line` / ``read_headers``).

Every byte stream is a valid message mutated: truncated, its line ends
made bare LF or bare CR, one line padded past the line bound, 101
headers added, a NUL or non-ASCII byte inserted, a header name left
without its colon or padded with a space, ``Content-Length`` repeated
with another value.  The readers return or refuse with a 400, 414 or
431; the daemon answers every request with a status line and a JSON
body; the client returns a dict or raises :class:`ServiceError`.
"""

import io
import json
import re
import socket
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import CampaignService, ServiceClient, ServiceConfig
from repro.service.client import (
    MAX_LINE_BYTES,
    Refusal,
    ServiceError,
    read_headers,
    read_line,
)

REQUEST = (
    b"POST /submit HTTP/1.1\r\nHost: localhost\r\n"
    b"Content-Type: application/json\r\nContent-Length: 2\r\n"
    b"Connection: close\r\n\r\n{}"
)
ANSWER = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 16\r\nConnection: close\r\n\r\n"
    b'{"status": "ok"}'
)


def _pad(draw, lines):
    at = draw(st.integers(0, len(lines) - 1))
    size = draw(st.integers(MAX_LINE_BYTES - 2, MAX_LINE_BYTES + 2))
    lines[at] += b"a" * max(0, size - len(lines[at]))


def _many_headers(draw, lines):
    lines[1:1] = [b"X-%d: %d" % (i, i) for i in range(101)]


def _odd_byte(draw, lines):
    at = draw(st.integers(0, len(lines) - 1))
    cut = draw(st.integers(0, len(lines[at])))
    byte = draw(st.sampled_from([b"\x00", b"\x80", b"\xff", b"\xc3\xa9"]))
    lines[at] = lines[at][:cut] + byte + lines[at][cut:]


def _bad_name(draw, lines):
    at = draw(st.integers(1, len(lines) - 1))
    name, _, value = lines[at].partition(b":")
    lines[at] = draw(
        st.sampled_from(
            [name + value, name + b" :" + value, b" " + lines[at]]
        )
    )


def _repeat_length(draw, lines):
    # Neither message's own Content-Length (2, 16).
    value = draw(st.sampled_from([0, 1, 3, 15, 17, 64]))
    at = draw(st.integers(1, len(lines)))
    lines.insert(at, b"Content-Length: %d" % value)


MUTATIONS = [_pad, _many_headers, _odd_byte, _bad_name, _repeat_length]


@st.composite
def mutated(draw, message):
    """``message`` through up to three mutations, with per-line ends
    drawn from CRLF, LF and CR, then possibly truncated."""
    head, _, body = message.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutation(draw, lines)
    ends = st.sampled_from([b"\r\n", b"\r\n", b"\n", b"\r"])
    data = b"".join(line + draw(ends) for line in lines) + draw(ends) + body
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(mutated(REQUEST), mutated(ANSWER)))
@example(data=b"GET / HTTP/1.1\r\n" + b"a" * MAX_LINE_BYTES + b"\r\n\r\n")
def test_the_readers_return_or_refuse_with_a_client_error(data):
    stream = io.BytesIO(data)
    try:
        read_line(stream)
        read_headers(stream)
    except Refusal as refusal:
        assert refusal.status in (400, 414, 431)


def _receive_all(sock):
    """Everything the peer sends until it closes (or resets)."""
    received = b""
    try:
        while chunk := sock.recv(65536):
            received += chunk
    except ConnectionResetError:
        pass
    return received


def _answers(received):
    """The answers in ``received``, each a status line, headers and a
    JSON object of ``Content-Length`` bytes; fails on anything else."""
    answers = []
    while received:
        head, blank, received = received.partition(b"\r\n\r\n")
        assert blank, head
        lines = head.decode("latin-1").split("\r\n")
        assert re.fullmatch(r"HTTP/1\.1 \d{3} [A-Za-z -]+", lines[0]), lines
        length = int(
            next(
                line.split(":", 1)[1]
                for line in lines
                if line.startswith("Content-Length:")
            )
        )
        body, received = received[:length], received[length:]
        assert isinstance(json.loads(body), dict), body
        answers.append(lines[0])
    return answers


def _health_is_ok(port):
    return ServiceClient(f"http://127.0.0.1:{port}", timeout=10).health()[
        "status"
    ] == "ok"


def test_the_daemon_answers_every_mutated_request(tmp_path, capfd):
    # One connection at a time: write the request, half-close, read
    # until the daemon closes.  Only an empty stream goes unanswered.
    config = ServiceConfig(
        store=str(tmp_path / "svc.db"),
        port=0,
        jobs=1,
        batch_size=8,
        poll_interval=0.05,
        quiet=False,
    )
    service = CampaignService(config)
    service.start()
    try:

        @settings(max_examples=30, deadline=None)
        @given(request=mutated(REQUEST))
        @example(request=b"")
        def answers(request):
            address = ("127.0.0.1", service.port)
            with socket.create_connection(address, timeout=10) as sock:
                try:
                    sock.sendall(request)
                    sock.shutdown(socket.SHUT_WR)
                except OSError:
                    pass  # refused and reset before the rest was sent
                received = _receive_all(sock)
            if request:
                assert _answers(received), received[:200]
            else:
                assert received == b""

        answers()
        assert _health_is_ok(service.port)
    finally:
        service.shutdown()
    assert "Traceback" not in capfd.readouterr().err


def test_the_client_returns_a_dict_or_raises_service_error():
    with socket.create_server(("127.0.0.1", 0)) as server:
        port = server.getsockname()[1]

        @settings(max_examples=30, deadline=None)
        @given(answer=mutated(ANSWER))
        @example(answer=b"HTTP/1.1 200 OK\r\n\r\n<html>")
        @example(answer=b"HTTP/1.1 200 OK\r\n\r\n[]")
        @example(answer=b"HTTP/1.1 200 OK\r\n\r\n" + b"[" * 100_000)
        @example(answer=b"HTTP/1.1 500 Oops\r\n\r\n" + b"[" * 100_000)
        def reads(answer):
            def answer_once():
                conn, _ = server.accept()
                with conn:
                    request = b""
                    while b"\r\n\r\n" not in request:
                        chunk = conn.recv(4096)
                        if not chunk:
                            break
                        request += chunk
                    conn.sendall(answer)

            thread = threading.Thread(target=answer_once, daemon=True)
            thread.start()
            try:
                assert isinstance(
                    ServiceClient(f"http://127.0.0.1:{port}", timeout=10)
                    .health(),
                    dict,
                )
            except ServiceError:
                pass
            thread.join(10)
            assert not thread.is_alive()

        reads()
