"""A minimal HTTP/1.1 keep-alive client over raw sockets.

It sends each request in one write with ``TCP_NODELAY`` set, so request
framing adds no delay of its own, records when the status line arrives
(first byte) and when the body is complete, decodes chunked bodies chunk
by chunk, and reconnects when the server answers ``Connection: close``.
"""

import socket
import time


class Response:
    __slots__ = ("status", "headers", "body", "chunks", "complete", "t_first", "t_end")

    def __init__(self):
        self.status, self.headers, self.body, self.chunks = 0, {}, b"", None
        self.complete, self.t_first, self.t_end = False, None, None


class Conn:
    def __init__(self, addr, timeout=60.0):
        host, port = addr.rsplit(":", 1)
        self.host, self.port, self.timeout = host, int(port), timeout
        self.sock = self.rfile = None
        self.connects = 0

    def _connect(self):
        self.sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self.connects += 1

    def close(self):
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = self.rfile = None

    @property
    def reconnects(self):
        return max(0, self.connects - 1)

    def request(self, method, path, body=b"", close=False):
        """Sends one request and reads the whole response. Never raises on
        a broken exchange: the response comes back with ``complete`` false
        (a truncated stream) or ``status`` 0 (no answer)."""
        if isinstance(body, str):
            body = body.encode()
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
        if body or method == "POST":
            head += f"Content-Length: {len(body)}\r\n"
        if close:
            head += "Connection: close\r\n"
        resp = Response()
        t0 = time.perf_counter()
        try:
            if self.sock is None:
                self._connect()
            self.sock.sendall(head.encode() + b"\r\n" + body)
            self._read(resp)
        except OSError:
            self.close()
        resp.t_end = time.perf_counter()
        resp.t_first = (resp.t_first or resp.t_end) - t0
        resp.t_end -= t0
        if not resp.complete or close or resp.headers.get("connection") == "close":
            self.close()
        return resp

    def _read(self, resp):
        line = self.rfile.readline()
        if not line:
            return
        resp.t_first = time.perf_counter()
        resp.status = int(line.split()[1])
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            k, _, v = line.decode("latin-1").partition(":")
            resp.headers[k.strip().lower()] = v.strip().lower()
        if resp.headers.get("transfer-encoding") == "chunked":
            resp.chunks = []
            while True:
                size_line = self.rfile.readline()
                if not size_line:
                    return
                size = int(size_line.split(b";")[0], 16)
                if size == 0:
                    self.rfile.readline()
                    break
                data = self.rfile.read(size)
                self.rfile.readline()
                if len(data) < size:
                    return
                resp.chunks.append(data)
            resp.body = b"".join(resp.chunks)
        else:
            n = int(resp.headers.get("content-length", "0"))
            resp.body = self.rfile.read(n)
            if len(resp.body) < n:
                return
        resp.complete = True


def get(addr, path, timeout=10.0):
    """One request on a fresh connection (health probes, stats)."""
    c = Conn(addr, timeout)
    try:
        return c.request("GET", path, close=True)
    finally:
        c.close()
