"""Processes of the system under test, and their accounting from outside:
CPU time and peak RSS of CLI runs from ``wait4``, of servers from
``/proc/<pid>/stat`` and ``VmHWM``."""

import os
import re
import subprocess
import threading
import time

import http1

CLK_TCK = os.sysconf("SC_CLK_TCK")


class CliRun:
    __slots__ = ("rc", "stdout", "stderr", "wall_s", "cpu_s", "maxrss_mb")


def run_cli(exe, args, stdin=None, timeout=120.0):
    """Runs one CLI process to completion and accounts for it alone."""
    t0 = time.perf_counter()
    p = subprocess.Popen([exe] + args, stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    t_err = threading.Thread(target=lambda: err.append(p.stderr.read()))
    t_err.start()
    if stdin is not None:
        t_in = threading.Thread(target=_feed, args=(p.stdin, stdin))
        t_in.start()
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    t_err.join()
    if stdin is not None:
        t_in.join()
    p.stdout.close()
    p.stderr.close()
    r = CliRun()
    r.rc, r.stdout, r.stderr = p.returncode, out, err[0] if err else b""
    r.wall_s = time.perf_counter() - t0
    r.cpu_s = ru.ru_utime + ru.ru_stime
    r.maxrss_mb = ru.ru_maxrss / 1024.0
    return r


def _feed(pipe, data):
    try:
        pipe.write(data.encode() if isinstance(data, str) else data)
        pipe.close()
    except OSError:
        pass


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


ADDR = re.compile(rb"(\d+\.\d+\.\d+\.\d+:\d+)")


class Server:
    """One ``cqla serve`` on an ephemeral port. ``setup_s`` is spawn until
    ``/healthz`` answers 200."""

    def __init__(self, exe, threads):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([exe, "serve", "--addr", "127.0.0.1:0", "--threads", str(threads)],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline()
        m = ADDR.search(line)
        if not m:
            self.stop()
            raise RuntimeError(f"cqla serve announced no address: {line!r}")
        self.addr = m.group(1).decode()
        # Keep draining stdout so a chatty server never blocks on a full pipe.
        self.drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self.drain.start()
        deadline = time.monotonic() + 30
        while http1.get(self.addr, "/healthz").status != 200:
            if time.monotonic() > deadline or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("cqla serve never answered /healthz")
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - t0

    @property
    def pid(self):
        return self.proc.pid

    def stop(self):
        if self.proc.poll() is None:
            try:
                c = http1.Conn(self.addr, timeout=5)
                c.request("POST", "/v1/shutdown", close=True)
                c.close()
            except (OSError, AttributeError):
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        drain = getattr(self, "drain", None)
        if drain is not None:
            drain.join(timeout=5)
        self.proc.stdout.close()


def start_fleet(exe, workers, threads):
    """Spawns ``workers`` servers at once; returns them and the time until
    every one answers ``/healthz``."""
    t0 = time.perf_counter()
    out, errs = [None] * workers, []

    def boot(i):
        try:
            out[i] = Server(exe, threads)
        except RuntimeError as e:
            errs.append(e)

    ts = [threading.Thread(target=boot, args=(i,)) for i in range(workers)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    setup = time.perf_counter() - t0
    if errs:
        for s in out:
            if s:
                s.stop()
        raise errs[0]
    return out, setup
