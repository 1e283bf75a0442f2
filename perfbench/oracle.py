"""Per-op correctness checks.

Each check returns ``None`` when the output is right, else a one-line
reason. Three kinds of reference, strongest first:

- the committed goldens under ``tests/golden`` (byte for byte);
- independent facts the generator knows (gate, qubit and Toffoli counts,
  requested parameters, chunk counts, fleet = single process);
- for the default seed, the committed digests in ``reference/``, which
  pin every other output byte for byte. They cover a fixed prefix of each
  workload's op stream, several times longer than a run reaches today; in
  that prefix an op with no recorded digest fails, and ops beyond it are
  counted and reported as unchecked.
"""

import hashlib
import json
import os
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
DIGESTS = os.path.join(HERE, "reference", f"seed-{DEFAULT_SEED}.json")
# Ops of each workload's stream that ``--record-reference`` runs and
# records: several times what a 20 s run reaches on a 2-core box.
RECORD_OPS = {"design-sweep": 260, "compile-programs": 1000, "serve-mix": 5000,
              "fleet-sweep": 300}
# Hex digits kept of each sha256.
DIGEST_HEX = 32


def sha(data):
    return hashlib.sha256(data).hexdigest()


class Oracle:
    def __init__(self, root, workload, seed, record=False):
        self.golden_dir = os.path.join(root, "tests", "golden")
        self.workload, self.record = workload, record
        self.cache = {}
        self.active = seed == DEFAULT_SEED
        self.prefix, self.digests = 0, []
        if self.active and not record and os.path.exists(DIGESTS):
            with open(DIGESTS) as f:
                ref = json.load(f).get(workload, {})
            self.prefix, self.digests = ref.get("ops", 0), ref.get("digests", [])
        self.recorded = {}
        self.checked = self.unchecked = 0
        self.lock = threading.Lock()

    def golden(self, rel):
        if rel not in self.cache:
            with open(os.path.join(self.golden_dir, rel), "rb") as f:
                self.cache[rel] = f.read()
        return self.cache[rel]

    def digest(self, op_id, body):
        """Checks (or, when recording, records) op ``op_id``'s default-seed
        digest."""
        if not self.active:
            return None
        d = sha(body)[:DIGEST_HEX]
        with self.lock:
            return self._digest(op_id, d)

    def _digest(self, op_id, d):
        if self.record:
            self.recorded[op_id] = d
            return None
        if op_id >= self.prefix:
            self.unchecked += 1
            return None
        self.checked += 1
        want = self.digests[op_id]
        if want is None:
            return f"op {op_id} has no committed reference digest"
        if want != d:
            return f"op {op_id}: output differs from the committed reference digest"
        return None

    def note(self):
        """One summary line on the reference digests, for the default seed."""
        if not self.active or self.record:
            return {}
        return {"reference digests": f"{self.checked} ops checked, {self.unchecked} beyond the "
                                     f"recorded prefix of {self.prefix} ops left unchecked"}

    def save(self, ops):
        """Writes the digests of the first ``ops`` ops, which the recording
        run must have run completely."""
        data = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as f:
                data = json.load(f)
        data[self.workload] = {"ops": ops, "digests": [self.recorded.get(i) for i in range(ops)]}
        os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
        with open(DIGESTS, "w") as f:
            f.write("{\n")
            for n, (w, ref) in enumerate(sorted(data.items())):
                f.write(f'"{w}": {{"ops": {ref["ops"]}, "digests": [\n')
                f.write(",\n".join(json.dumps(d) for d in ref["digests"]))
                f.write("\n]}" + (",\n" if n + 1 < len(data) else "\n"))
            f.write("}\n")


def parse(body):
    try:
        return json.loads(body), None
    except ValueError as e:
        return None, f"response is not JSON: {e}"


def check_grid_doc(body, artifact, points, expect_params=None):
    doc, err = parse(body)
    if err:
        return err
    if doc.get("artifact") != artifact or doc.get("points") != points:
        return f"grid document header wrong: {doc.get('artifact')} / {doc.get('points')} points"
    results = doc.get("results", [])
    if len(results) != points:
        return f"grid document has {len(results)} results, expected {points}"
    for r in results:
        if "params" not in r or "data" not in r:
            return "grid result lacks params or data"
        if expect_params:
            p = r["params"]
            for k, v in expect_params.items():
                if k in p and str(p[k]) not in v:
                    return f"grid point {k}={p[k]} was never requested"
    return None


def machine_params(clauses):
    """``["bits=1,2", "code=steane"]`` -> ``{"bits": {"1", "2"}, ...}``."""
    out = {}
    for c in clauses:
        k, _, v = c.partition("=")
        out[k] = set(v.split(","))
    return out


def count_points(clauses):
    n = 1
    for v in machine_params(clauses).values():
        n *= len(v)
    return n


def check_compile_doc(body, op):
    doc, err = parse(body)
    if err:
        return err
    data = doc.get("data", {})
    prog, sched = data.get("program", {}), data.get("schedule", {})
    want = {"source": "inline-asm", "qubits": op["qubits"], "gates": op["gates"],
            "toffoli": op["toffoli"]}
    for k, v in want.items():
        if prog.get(k) != v:
            return f"compile program.{k} = {prog.get(k)!r}, expected {v!r}"
    lowered = op["gates"] + 14 * op["toffoli"]
    if sched.get("width") != op["width"] or sched.get("lowered_gates") != lowered:
        return f"compile schedule width/lowered_gates = {sched.get('width')}/{sched.get('lowered_gates')}"
    if not (sched.get("makespan", 0) >= sched.get("critical_path", 1) > 0):
        return "compile makespan below its critical path"
    if not 0 < sched.get("utilization", 0) <= 1:
        return "compile utilization outside (0, 1]"
    return None


def check_error_doc(resp, expect):
    if resp.status != expect:
        return f"expected {expect}, got {resp.status}"
    doc, err = parse(resp.body)
    if err:
        return err
    if not isinstance(doc, dict) or "error" not in doc or "hint" not in doc:
        return "rejection body lacks {error,hint}"
    return None
