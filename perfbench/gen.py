"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of ``(workload, seed)``: it draws from
its own ``random.Random`` seeded with a string, so the same seed gives the
same inputs on every machine. The program under test only ever sees the
generated inputs (argv, stdin, HTTP requests).

Sizes that drive cost (adder bits, program gates) come from
:class:`Levels`: each block of draws visits a fixed set of evenly spaced
levels once, in a seeded order, each with a small seeded jitter. Different
seeds give different inputs whose cost distribution is nearly the same,
which keeps run-to-run spread small. Values that only need to be spread
out use the seeded low-discrepancy :class:`Spread`.
"""

import itertools
import random

TECHS = ("current", "projected")
CODES = ("steane", "bacon-shor")


def rng_for(workload, seed, salt=""):
    return random.Random(f"{workload}:{seed}:{salt}")


class Spread:
    """Draws from ``[lo, hi]`` along a Kronecker sequence with a seeded
    start (``log`` spaces the draws geometrically)."""

    GOLDEN = 0.6180339887498949
    SILVER = 0.4142135623730951

    def __init__(self, rng, lo, hi, log=False, step=GOLDEN):
        self.lo, self.hi, self.log, self.step = lo, hi, log, step
        self.u = rng.random()

    def draw(self):
        self.u = (self.u + self.step) % 1.0
        if self.log:
            return int(round(self.lo * (self.hi / self.lo) ** self.u))
        return int(round(self.lo + self.u * (self.hi - self.lo)))


class Levels:
    """Draws ``n`` evenly spaced levels of ``[lo, hi]`` (geometrically
    spaced with ``log``) once per block of ``n`` draws, in a seeded order,
    each moved by a seeded jitter of up to ``jitter`` of a level's width."""

    def __init__(self, rng, lo, hi, n, log=False, jitter=0.2):
        self.rng, self.lo, self.hi, self.n, self.log, self.jitter = rng, lo, hi, n, log, jitter
        self.order = []

    def draw(self):
        if not self.order:
            self.order = list(range(self.n))
            self.rng.shuffle(self.order)
        return self.at(self.order.pop())

    def at(self, k):
        """Level ``k`` with a fresh jitter."""
        u = (k + 0.5 + self.jitter * (self.rng.random() - 0.5)) / self.n
        if self.log:
            return int(round(self.lo * (self.hi / self.lo) ** u))
        return int(round(self.lo + u * (self.hi - self.lo)))


class Fresh:
    """Remembers every point key handed out in this run, so a generated
    point never repeats and can never hit a cache warmed by an earlier
    op."""

    def __init__(self):
        self.used = set()

    def take(self, draw):
        """Calls ``draw()`` until it returns ``(keys, value)`` with no key
        used before, claims the keys, and returns the value."""
        while True:
            keys, value = draw()
            if len(set(keys)) == len(keys) and not self.used.intersection(keys):
                self.used.update(keys)
                return value


# ---------------------------------------------------------------- design


def design_ops(seed):
    """Endless op stream for ``design-sweep``, in cycles of thirteen: the
    three golden-pinned artifacts (``sweep grid``, ``run table5``,
    ``run fig7``) and ten seeded 4-point ``machine`` grids over
    tech x code x bits x blocks x xfer, with bits on ten levels of
    [128, 2048], one grid per level in every cycle."""
    rng = rng_for("design-sweep", seed)
    bits = Levels(rng, 128, 2048, 10)
    b_low, b_high = Spread(rng, 9, 59, step=Spread.SILVER), Spread(rng, 60, 100, step=Spread.SILVER)
    cycle = ("grid",) + ("machine",) * 3 + ("table5",) + ("machine",) * 3 + ("fig7",) + ("machine",) * 4
    i = 0
    while True:
        for step in cycle:
            op = {"id": i, "kind": step, "group": i // len(cycle), "cycle_start": step == "grid"}
            if step == "machine":
                op["spec"] = (f"tech={rng.choice(TECHS)} code=steane,bacon-shor bits={bits.draw()} "
                              f"blocks={b_low.draw()},{b_high.draw()} xfer={rng.randrange(2, 21)}")
            yield op
            i += 1


def design_argv(op):
    tail = ["--format", "json", "--threads", "1"]
    if op["kind"] == "grid":
        return ["sweep", "grid"] + tail
    if op["kind"] == "machine":
        return ["run", "machine"] + op["spec"].split() + tail
    return ["run", op["kind"]] + tail


# --------------------------------------------------------------- compile

# Gate mix out of 100: 36 CNOT, 14 CZ, 8 Toffoli, 42 single-qubit
# Clifford+T (H, T, S, X, Z, Y).
ONE_Q = ("h",) * 12 + ("t",) * 12 + ("s",) * 6 + ("x",) * 4 + ("z",) * 4 + ("y",) * 4
MIX = ONE_Q + ("cnot",) * 36 + ("cz",) * 14 + ("toffoli",) * 8


def random_program(rng, qubits, gates):
    """A Clifford+T+Toffoli asm program with exactly ``gates`` gates on
    ``qubits`` qubits. Returns ``(text, toffoli_count)``."""
    lines = [f"# circuit: {qubits} qubits, {gates} gates"]
    toffolis = 0
    mnemonics = rng.choices(MIX, k=gates)
    for m in mnemonics:
        if m == "toffoli":
            a, b, c = rng.sample(range(qubits), 3)
            lines.append(f"toffoli q{a}, q{b}, q{c}")
            toffolis += 1
        elif m in ("cnot", "cz"):
            a, b = rng.sample(range(qubits), 2)
            lines.append(f"{m} q{a}, q{b}")
        else:
            lines.append(f"{m} q{rng.randrange(qubits)}")
    return "\n".join(lines) + "\n", toffolis


def compile_ops(seed, lo=1024, hi=65536):
    """Endless op stream for ``compile-programs``: one distinct program per
    op. Each block of nine ops visits nine log-spaced gate levels of
    ``[lo, hi]``, nine qubit levels of [16, 128] and nine width levels of
    [4, 64] once each. Gate level ``g`` of block ``b`` gets qubit level
    ``g + b`` and width level ``g + 2b`` (mod 9), a Graeco-Latin square,
    so every nine blocks pair each gate level once with each qubit level
    and each width level. The pairing is the same for every seed, which
    keeps the ops near the median alike from seed to seed; the seed draws
    the programs, the order within a block and each level's jitter."""
    rng = rng_for("compile-programs", seed)
    n = 9
    gates = Levels(rng, lo, hi, n, log=True)
    qubits, widths = Levels(rng, 16, 128, n), Levels(rng, 4, 64, n)
    i = 0
    while True:
        b = i // n
        order = list(range(n))
        rng.shuffle(order)
        for g in order:
            q, w, size = qubits.at((g + b) % n), widths.at((g + 2 * b) % n), gates.at(g)
            text, toff = random_program(rng, q, size)
            yield {"id": i, "kind": "compile", "group": b, "cycle_start": i % n == 0,
                   "width": w, "qubits": q, "gates": size, "toffoli": toff, "program": text}
            i += 1


# ------------------------------------------------------------- serve-mix

POPULAR = ("table4", "table5", "fig7", "table2", "fig6a", "table3", "fig2",
           "machine", "table1", "fig6b", "fig8a", "fig8b")
POPULAR_WEIGHTS = (20, 16, 12, 10, 8, 7, 6, 6, 5, 4, 3, 3)


def _machine_query(rng, bits):
    return {"tech": rng.choice(TECHS), "code": rng.choice(CODES), "bits": str(bits),
            "blocks": str(rng.randrange(9, 101)), "xfer": str(rng.randrange(2, 21))}


def _query(params):
    return "&".join(f"{k}={v}" for k, v in params.items())


# One block of the serve-mix, shuffled anew for every block of ops.
SERVE_PLAN = (["popular"] * 60 + ["cold"] * 14 + ["grid"] * 6 + ["compile"] * 12
              + ["job"] * 5 + ["reject"] * 3)


def serve_ops(seed):
    """Endless request stream for ``serve-mix``. Each op is one client
    action (a job op is create + stream + resume). Shares per block of 100:
    60 popular reads, 20 cold machine points / grid streams, 12 compile
    bodies (a quarter repeats), 5 jobs, 3 rejections."""
    rng = rng_for("serve-mix", seed)
    bits = Spread(rng, 128, 1024)
    fresh = Fresh()

    def machine(n):
        """A fresh machine query whose ``n`` points differ only in bits."""
        def draw():
            q = _machine_query(rng, 0)
            bs = [bits.draw() for _ in range(n)]
            q["bits"] = ",".join(map(str, bs))
            return [(q["tech"], q["code"], b, q["blocks"], q["xfer"]) for b in bs], q
        return fresh.take(draw)

    gates = Spread(rng, 256, 4096, log=True)
    bodies = []
    # Grid and job sizes rotate 2, 3, 4 points rather than being drawn,
    # so the heavy ops that set the tail look alike from seed to seed.
    grid_n, job_n = itertools.cycle((2, 3, 4)), itertools.cycle((2, 3, 4))
    plan = SERVE_PLAN
    i = 0
    while True:
        block = plan[:]
        rng.shuffle(block)
        for kind in block:
            op = {"id": i, "kind": kind}
            if kind == "popular":
                op["artifact"] = rng.choices(POPULAR, POPULAR_WEIGHTS)[0]
                op["path"] = f"/v1/run/{op['artifact']}"
            elif kind == "cold":
                op["path"] = "/v1/run/machine?" + _query(machine(1))
            elif kind == "grid":
                n = next(grid_n)
                op["points"] = n
                op["path"] = "/v1/run/machine?" + _query(machine(n))
            elif kind == "compile":
                if bodies and rng.random() < 0.25:
                    op.update(rng.choice(bodies))
                else:
                    q, g = rng.randrange(16, 65), gates.draw()
                    text, toff = random_program(rng, q, g)
                    body = {"program": text, "qubits": q, "gates": g, "toffoli": toff,
                            "width": rng.randrange(4, 65)}
                    bodies.append(body)
                    op.update(body)
                op["path"] = f"/v1/compile?width={op['width']}"
            elif kind == "job":
                n = next(job_n)
                op["points"] = n
                op["body"] = " ".join(f"{k}={v}" for k, v in machine(n).items())
                op["resume_from"] = rng.randrange(1, n + 1)
            else:
                op["path"], op["method"], op["expect"] = rng.choice((
                    ("/v1/run/tabel4", "GET", 404),
                    ("/v1/run/machine?bits=12x", "GET", 400),
                    ("/v1/run/machine?code=surface", "GET", 400),
                    ("/v1/compile?width=0", "POST", 400),
                ))
            yield op
            i += 1


# ----------------------------------------------------------- fleet-sweep


def fleet_ops(seed):
    """Endless op stream for ``fleet-sweep``: alternating legacy
    design-space sweep specs and registry ``machine`` grids, 32 points
    each (4 bits x 2 codes x 2 blocks x 2 xfer), every point distinct
    within the run. Ops are this large so that compute, not the fixed
    process start and round trips of a distributed run, sets the
    makespan: on the 2-vCPU reference box those fixed costs swing with
    the host's wake-up latency."""
    rng = rng_for("fleet-sweep", seed)
    small, large = Levels(rng, 128, 448, 4), Levels(rng, 448, 768, 4)
    fresh = Fresh()
    i = 0
    while True:
        kind = "sweep" if i % 2 == 0 else "grid"

        def draw():
            v = {"tech": rng.choice(TECHS),
                 "bits": sorted([small.draw(), small.draw(), large.draw(), large.draw()]),
                 "k1": rng.randrange(9, 55), "k2": rng.randrange(55, 101), "x1": rng.randrange(2, 11)}
            v["x2"] = rng.randrange(v["x1"] + 1, 21)
            return [(kind, v["tech"], b, k) for b in v["bits"] for k in (v["k1"], v["k2"])], v

        v = fresh.take(draw)
        clauses = [f"tech={v['tech']}", "code=steane,bacon-shor", "bits=" + ",".join(map(str, v["bits"])),
                   f"blocks={v['k1']},{v['k2']}", f"xfer={v['x1']},{v['x2']}"]
        args = [" ".join(clauses)] if kind == "sweep" else ["machine"] + clauses
        yield {"id": i, "kind": kind, "group": i // 4, "cycle_start": i % 4 == 0, "args": args,
               "points": 32}
        i += 1
