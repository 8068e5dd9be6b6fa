"""TCP channel: the framed exchange over real sockets.

The analog of ``TcpChannel`` in the paper's Fig. 2 and the configuration
behind every "Mono (Tcp)" measurement.  The request/response protocol —
frames, pooling, the serve loop — is
:mod:`repro.channels.exchange`; this module is the byte pipe under it: a
socket wrapper, ``connect`` and the accept loop.
"""

from __future__ import annotations

import socket
import threading

from repro.channels.base import RequestHandler, ServerBinding
from repro.channels.exchange import FramedChannel, serve_connection
from repro.channels.framing import read_frame_into, sendmsg_all
from repro.errors import AddressError, ChannelError


def parse_host_port(authority: str) -> tuple[str, int]:
    """Split ``host:port``; raises AddressError on malformed input."""
    host, sep, port_text = authority.rpartition(":")
    if not sep:
        raise AddressError(f"authority {authority!r} is not host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise AddressError(f"bad port in authority {authority!r}") from None
    if not 0 <= port <= 65535:
        raise AddressError(f"port {port} out of range in {authority!r}")
    return host or "127.0.0.1", port


class _TcpConnection:
    """A connected socket as an exchange :class:`~.exchange.Connection`."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._received = bytearray()  # grows to the largest frame read

    def send(self, parts: list) -> None:
        if len(parts) == 1:
            self.sock.sendall(parts[0])
        else:
            sendmsg_all(self.sock, parts)

    def read_frame(self) -> tuple[int, memoryview]:
        return read_frame_into(self.sock, self._received)

    def release_frame(self) -> None:
        pass  # the frame's buffer is the connection's, reused as is

    def alive(self) -> bool:
        return self.sock.fileno() >= 0

    def close(self) -> None:
        try:
            # shutdown() before close(): closing alone does not wake a
            # thread blocked in recv() on the same socket.
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - teardown must finish
            pass


def connect(authority: str) -> _TcpConnection:
    """Dial ``host:port``; raises :class:`ChannelError` when refused."""
    host, port = parse_host_port(authority)
    try:
        sock = socket.create_connection((host, port), timeout=30.0)
    except OSError as exc:
        raise ChannelError(f"cannot connect to {authority}: {exc}") from exc
    # The bound is on the dial only: a reply may take as long as the
    # method behind it runs.
    sock.settimeout(None)
    return _TcpConnection(sock)


class _TcpBinding(ServerBinding):
    """Accept loop + per-connection worker threads.

    :meth:`close` hangs up every live connection and joins its thread,
    so a closed binding leaves no thread behind.
    """

    def __init__(self, host: str, port: int, handler: RequestHandler) -> None:
        self._handler = handler
        self._closed = threading.Event()
        self._lock = threading.Lock()
        self._live: dict[threading.Thread, _TcpConnection] = {}
        self._server = socket.create_server((host, port), reuse_port=False)
        self._host, self._port = self._server.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"parc-tcp-accept-{self._port}",
            daemon=True,
        )
        self._accept_thread.start()

    @property
    def authority(self) -> str:
        return f"{self._host}:{self._port}"

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, _addr = self._server.accept()
            except OSError:
                return  # server socket closed
            conn = _TcpConnection(sock)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"parc-tcp-conn-{self._port}",
                daemon=True,
            )
            with self._lock:
                self._live[thread] = conn
            thread.start()

    def _serve_connection(self, conn: _TcpConnection) -> None:
        try:
            serve_connection(conn, self._handler, self._closed)
        finally:
            conn.close()
            with self._lock:
                self._live.pop(threading.current_thread(), None)

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
            # The accept loop has ended, so no connection joins the list
            # from here on.  Hanging up wakes a thread blocked in recv();
            # one inside a handler leaves once its reply fails to send.
            with self._lock:
                live = list(self._live.items())
            me = threading.current_thread()
            for thread, conn in live:
                conn.close()
                if thread is not me:
                    thread.join()


#: Idle sockets kept per remote authority; overflow closes immediately.
DEFAULT_MAX_IDLE_PER_AUTHORITY = 8

#: Idle sockets older than this are discarded instead of reused — a
#: long-parked socket has usually been dropped by the peer or a middlebox,
#: and reusing it surfaces as a confusing first-call ChannelError.
DEFAULT_MAX_IDLE_SECONDS = 30.0


class TcpChannel(FramedChannel):
    """Binary formatter over framed TCP — the fast remoting configuration.

    Requests are built in a ``bytearray`` with the frame header patched
    in place and sent with one ``sendmsg``, a large payload from its own
    memory; responses are decoded from ``memoryview``\\ s of a reusable
    receive buffer.  *formatter* defaults to
    :class:`~repro.serialization.BinaryFormatter`; any other
    :class:`~repro.serialization.Formatter` (SOAP, say) rides the same
    exchange through its ``gather_into``.
    """

    scheme = "tcp"

    def __init__(
        self,
        formatter=None,  # type: ignore[no-untyped-def]
        *,
        max_idle_per_authority: int = DEFAULT_MAX_IDLE_PER_AUTHORITY,
        max_idle_s: float = DEFAULT_MAX_IDLE_SECONDS,
    ) -> None:
        super().__init__(
            formatter,
            connect,
            max_idle_per_authority=max_idle_per_authority,
            max_idle_s=max_idle_s,
        )

    def listen(self, authority: str, handler: RequestHandler) -> ServerBinding:
        host, port = parse_host_port(authority)
        return _TcpBinding(host, port, handler)
