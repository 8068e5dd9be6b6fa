"""HTTP channel: real HTTP/1.1 over sockets carrying SOAP payloads.

The paper's Fig. 8b shows the Http channel far below the Tcp channel; the
cost is structural — text framing, per-request header blocks, and the SOAP
formatter's verbose encoding.  This module implements an honest (if
minimal) HTTP/1.1 codec: request line + headers + Content-Length body,
keep-alive connections, 200/500 status mapping.  Interoperability with
general HTTP clients is a non-goal; wire realism for the benchmark is.
"""

from __future__ import annotations

import socket
import threading
from typing import Mapping

from repro.channels.base import (
    Channel,
    RequestHandler,
    ServerBinding,
    reply_bytes,
)
from repro.channels.exchange import ConnectionPool
from repro.channels.framing import recv_exact
from repro.channels.tcp import (
    DEFAULT_MAX_IDLE_PER_AUTHORITY,
    DEFAULT_MAX_IDLE_SECONDS,
    connect,
    parse_host_port,
)
from repro.errors import ChannelClosedError, ChannelError, WireFormatError
from repro.serialization import SoapFormatter

_MAX_HEADER_BYTES = 64 * 1024
_USER_HEADER_PREFIX = "x-parc-"


def _read_until_blank_line(conn: socket.socket) -> bytes:
    """Read up to and including the ``\\r\\n\\r\\n`` header terminator."""
    data = bytearray()
    while not data.endswith(b"\r\n\r\n"):
        if len(data) > _MAX_HEADER_BYTES:
            raise WireFormatError("HTTP header block too large")
        chunk = conn.recv(1)
        if not chunk:
            if not data:
                raise ChannelClosedError("peer closed before request")
            raise ChannelClosedError("peer closed mid-header")
        data += chunk
    return bytes(data)


def _parse_headers(lines: list[str]) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise WireFormatError(f"malformed HTTP header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


def read_http_message(conn: socket.socket) -> tuple[str, dict[str, str], bytes]:
    """Read one HTTP message; returns (start line, headers, body)."""
    raw = _read_until_blank_line(conn).decode("iso-8859-1")
    lines = raw.split("\r\n")
    start_line = lines[0]
    headers = _parse_headers([line for line in lines[1:] if line])
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise WireFormatError(f"bad Content-Length {length_text!r}") from None
    body = recv_exact(conn, length) if length else b""
    return start_line, headers, body


def build_request(
    authority: str, path: str, headers: Mapping[str, str], body: bytes
) -> bytes:
    lines = [
        f"POST /{path} HTTP/1.1",
        f"Host: {authority}",
        "Content-Type: text/xml; charset=utf-8",
        f"Content-Length: {len(body)}",
        'SOAPAction: "parc#invoke"',
        "Connection: keep-alive",
    ]
    for key, value in headers.items():
        lines.append(f"{_USER_HEADER_PREFIX}{key}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("iso-8859-1") + body


def build_response(status: int, reason: str, body: bytes) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: text/xml; charset=utf-8",
        f"Content-Length: {len(body)}",
        "Server: PyParC",
        "Connection: keep-alive",
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("iso-8859-1") + body


class _HttpBinding(ServerBinding):
    def __init__(self, host: str, port: int, handler: RequestHandler) -> None:
        self._handler = handler
        self._closed = threading.Event()
        self._server = socket.create_server((host, port))
        self._host, self._port = self._server.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"parc-http-accept-{self._port}",
            daemon=True,
        )
        self._accept_thread.start()

    @property
    def authority(self) -> str:
        return f"{self._host}:{self._port}"

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"parc-http-conn-{self._port}",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._closed.is_set():
                try:
                    start_line, headers, body = read_http_message(conn)
                except (ChannelError, OSError):
                    return
                try:
                    response = self._dispatch(start_line, headers, body)
                except Exception as exc:  # noqa: BLE001 - wire boundary
                    text = f"{type(exc).__name__}: {exc}".encode("utf-8")
                    response = build_response(500, "Internal Server Error", text)
                try:
                    conn.sendall(response)
                except OSError:
                    return

    def _dispatch(
        self, start_line: str, headers: Mapping[str, str], body: bytes
    ) -> bytes:
        parts = start_line.split(" ")
        if len(parts) != 3 or parts[0] != "POST":
            raise WireFormatError(f"unsupported request line {start_line!r}")
        path = parts[1].lstrip("/")
        user_headers = {
            key[len(_USER_HEADER_PREFIX):]: value
            for key, value in headers.items()
            if key.startswith(_USER_HEADER_PREFIX)
        }
        result = reply_bytes(self._handler(path, body, user_headers))
        return build_response(200, "OK", result)

    def close(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            try:
                # shutdown() before close(): on Linux, closing alone does
                # not wake the thread blocked in accept().
                try:
                    self._server.shutdown(socket.SHUT_RDWR)
                finally:
                    self._server.close()
            except OSError:
                pass
            if self._accept_thread is not threading.current_thread():
                self._accept_thread.join()


class HttpChannel(Channel):
    """SOAP formatter over HTTP/1.1 — the slow remoting configuration."""

    scheme = "http"

    def __init__(self, formatter=None) -> None:  # type: ignore[no-untyped-def]
        super().__init__(formatter if formatter is not None else SoapFormatter())
        self._pool = ConnectionPool(
            connect, DEFAULT_MAX_IDLE_PER_AUTHORITY, DEFAULT_MAX_IDLE_SECONDS
        )

    def listen(self, authority: str, handler: RequestHandler) -> ServerBinding:
        host, port = parse_host_port(authority)
        return _HttpBinding(host, port, handler)

    def call(
        self,
        authority: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str] | None = None,
    ) -> bytes:
        request = build_request(authority, path, dict(headers or {}), body)
        conn = self._pool.checkout(authority)
        try:
            conn.sock.sendall(request)
            start_line, _headers, response_body = read_http_message(conn.sock)
        except (OSError, ChannelError):
            conn.close()
            raise
        finally:
            self._pool.checkin(authority, conn)  # drops a closed socket
        parts = start_line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise WireFormatError(f"bad HTTP status line {start_line!r}")
        status = parts[1]
        if status == "200":
            return response_body
        raise ChannelError(
            f"remote handler failed (HTTP {status}): "
            f"{response_body.decode('utf-8', 'replace')}"
        )

    def close(self) -> None:
        self._pool.close()
