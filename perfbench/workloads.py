"""The three benchmark workloads, their inputs and their output checks.

Each workload is a closed loop from one process: operations run one after
another through the in-process command line, ``deza.cli.main``.  A pass
issues every operation once and keeps the outputs; checks run after the
pass, outside its timing.  Every operation is checked against the frozen
references in ``references.json``; on top of that, ``independent_checks``
compares some outputs with references computed by ``refs``, which shares
no code with the package.

Functions of the package are looked up at call time (``canon.
canonical_certificate``, not a name bound at import), so the traced run
sees the calls the benchmark makes itself.
"""

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

from importlib import import_module

import refs

# import_module, because the package re-exports functions named like some
# of its modules (deza.catalog is the function catalog())
canon = import_module("deza.canon")
catalog = import_module("deza.catalog")
deza_cli = import_module("deza.cli")
graph6 = import_module("deza.graph6")
graphs = import_module("deza.graphs")

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 1
T3_PRUNE = "maxpair=k-2;satdistinct=2;anchor=k-2"
# exact-pipeline inputs under REPEAT_V vertices run REPEATS times a pass
REPEAT_V = 32
REPEATS = 9


def sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def cli(argv, stdin=None):
    """Run one command in process; returns (exit code, stdout text).

    An exception escaping the command gives exit code None and the
    exception as text, which every check counts as a failed operation.
    """
    out = io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = deza_cli.main(argv)
    except Exception as exc:  # counted as a failed operation, not a crash
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def canonical_json(text):
    """The CLI promises parse/re-serialize byte identity."""
    obj = json.loads(text)
    if json.dumps(obj, separators=(",", ":")) + "\n" != text:
        raise ValueError("JSON output is not canonical")
    return obj


class Outcome:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, op_id, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{op_id}: {why}")

    def guard(self, op_id, fn):
        """Run one check; an exception counts as a failed operation."""
        try:
            ok, why = fn()
        except Exception as exc:  # a crashed check is a failure to report
            ok, why = False, f"{type(exc).__name__}: {exc}"
        self.op(op_id, ok, why)


class Workload:
    """A workload issues ops(index) as pass number index.

    run_pass returns (seconds per item, outputs); frozen() turns outputs
    into references; check and independent_checks record into an Outcome.
    """

    def __init__(self, seed, workdir, references):
        self.seed = seed
        self.workdir = Path(workdir)
        self.refs = references.get(self.name, {})

    def run_pass(self, index, tracer=None):
        times, outputs = [], []
        for op_id, run in self.ops(index):
            if tracer is not None:
                tracer.item = op_id
            t0 = time.perf_counter()
            outputs.append((op_id, run()))
            times.append(time.perf_counter() - t0)
        return times, outputs

    def cleanup(self, outputs):
        pass


class AuditT1(Workload):
    """Theorem-1 audit, serial, at two windows.

    Why: the default-suite bottleneck; the hard sat=0,k-2 prune; it
    reproduces the 36-realization (14,3,1,0) finding.  Exhaustive, so the
    seed changes nothing.
    """

    name = "audit-t1"
    WINDOWS = ((3, 14), (4, 13))

    def ops(self, index):
        for k, v in self.WINDOWS:
            argv = ["audit", "--theorem", "1", "--kmax", str(k),
                    "--vmax", str(v), "--json"]
            yield f"k{k}-v{v}", lambda argv=argv: cli(argv)

    def frozen(self, outputs):
        return {op_id: {"rc": rc, "sha256": sha(out)}
                for op_id, (rc, out) in outputs}

    def check(self, outputs, outcome):
        for op_id, (rc, out) in outputs:
            # exit status 2 with the frozen discrepancy list is success
            ref = self.refs[op_id]
            outcome.op(f"audit {op_id}",
                       rc == ref["rc"] and sha(out) == ref["sha256"],
                       f"rc={rc}, output differs from the frozen report")

    def independent_checks(self, outputs, outcome):
        rc, out = dict(outputs)["k3-v14"]

        def heawood_unique():
            found = [f for f in json.loads(out)["found"]
                     if f["deza"] == [14, 3, 1, 0]]
            if len(found) != 36:
                return False, f"{len(found)} (14,3,1,0) graphs, expected 36"
            for f in found:
                rows = refs.graph6_decode(f["graph6"])
                if refs.pair_values(rows) != (3, (0, 1)) or \
                        not refs.connected(rows):
                    return False, f"{f['graph6']} is not (14,3,1,0)"
            target = canon.canonical_certificate(
                graphs.Graph(14, refs.heawood())).certificate_bytes
            hits = sum(canon.canonical_certificate(graphs.Graph(
                14, refs.graph6_decode(f["graph6"]))).certificate_bytes
                == target for f in found)
            return hits == 1, f"{hits} graphs match the Heawood graph"

        outcome.guard("audit k3-v14 heawood", heawood_unique)


class CensusPar(Workload):
    """enumerate --jobs 2 --out over three runs.

    Why: the same generator through the parallel frontier/subtree path,
    the weaker distinct-value prune audit 3 depends on, and the unpruned
    path that builds and writes a record for every class.  No seed.
    """

    name = "census-par"
    RUNS = (("t3-k3", ["--k", "3", "--v", "6..14", "--prune", T3_PRUNE]),
            ("t3-k4", ["--k", "4", "--v", "5..12", "--prune", T3_PRUNE]),
            ("all-11-4", ["--v", "11", "--k", "4"]))
    jobs = "2"

    def ops(self, index):
        for op_id, args in self.RUNS:
            prefix = self.workdir / f"pass{index}-{op_id}"
            argv = ["enumerate", *args, "--jobs", self.jobs,
                    "--out", str(prefix)]

            def run(argv=argv, prefix=prefix):
                rc, _ = cli(argv)
                return rc, prefix
            yield op_id, run

    @staticmethod
    def digests(prefix):
        return {"g6": sha(Path(f"{prefix}.g6").read_bytes()),
                "meta": sha(Path(f"{prefix}.meta.jsonl").read_bytes())}

    def frozen(self, outputs):
        return {op_id: self.digests(prefix)
                for op_id, (rc, prefix) in outputs}

    def check(self, outputs, outcome):
        for op_id, (rc, prefix) in outputs:
            outcome.guard(f"enumerate {op_id}", lambda: (
                rc == 0 and self.digests(prefix) == self.refs[op_id],
                f"rc={rc}, census files differ from the --jobs 1 digests"))

    def independent_checks(self, outputs, outcome):
        prefix = dict(outputs)["all-11-4"][1]

        def count_266():
            lines = Path(f"{prefix}.g6").read_text().split()
            graphs = {refs.graph6_decode(line) for line in lines}
            if any(len(g) != 11 or refs.pair_values(g)[0] != 4
                   for g in graphs):
                return False, "a line is not a 4-regular graph on 11 vertices"
            return len(lines) == len(graphs) == 266, \
                f"{len(lines)} lines, {len(graphs)} distinct, expected 266"

        outcome.guard("enumerate all-11-4 count", count_266)

    def cleanup(self, outputs):
        for _, (_, prefix) in outputs:
            for suffix in (".g6", ".meta.jsonl"):
                Path(f"{prefix}{suffix}").unlink(missing_ok=True)


class Item:
    """One seeded exact-pipeline input: a graph relabelled by a random
    permutation, with what its construction says about it."""

    def __init__(self, name, rows, rng, expect=None, fixed=True, round_=0):
        v = len(rows)
        self.name = name
        self.base = rows
        # round 0 is the input the frozen raw outputs belong to
        self.round = round_
        # fixed: the same graph, up to labels, for every seed
        self.fixed = fixed
        self.perm = rng.sample(range(v), v)
        self.inverse = [0] * v
        for x, y in enumerate(self.perm):
            self.inverse[y] = x
        self.rows = refs.relabel(rows, self.perm)
        self.graph = graphs.Graph(v, self.rows)
        # a second relabelling, for the certificate invariance check
        other = rng.sample(range(v), v)
        self.other = graphs.Graph(v, refs.relabel(rows, other))
        self.expect = expect or {}

    def relabelled(self, rng, round_):
        """The same input under another seeded labelling."""
        return Item(self.name, self.base, rng, self.expect, self.fixed,
                    round_)


def exact_items(seed):
    """Input families and why each is in the workload:

    - catalog graphs: the named examples every acceptance criterion uses;
    - hypercubes Q4-Q6: sparse, edge-transitive, up to v=64 for the
      spectral layer, with a known integer spectrum;
    - complements of s=2..8 disjoint 3-cubes: dense (k=8s-4), highly
      symmetric inputs for canon at v up to 64, known spectrum;
    - Paley graphs, prime q = 1 (mod 4), q <= 61: strongly regular with
      irrational eigenvalues, so factorisation keeps a residual;
    - random k-regular graphs, v=16..40 in steps of 2 and v=48, 56, 64:
      rigid inputs, whose structure comes from the seed while their sizes
      stay fixed, so the work per run does not depend on the seed; their
      costs form a continuum, so the median item does not sit in a gap
      between cost clusters.
    """
    rng = refs.seeded(seed, "exact-pipeline")
    items = []
    for name in catalog.catalog_names():
        rows = catalog.construct(name).rows
        items.append(Item(f"catalog/{name}", rows, rng))
    for d in (4, 5, 6):
        items.append(Item(f"hypercube/{d}", refs.hypercube(d), rng, {
            "deza": [1 << d, d, 2, 0], "srg": None, "diameter": d,
            "coeffs": refs.hypercube_charpoly(d)}))
    for s in range(2, 9):
        k = 8 * s - 4
        items.append(Item(f"cubes-complement/{s}", refs.cubes_complement(s),
                          rng, {"deza": [8 * s, k, k - 2, k - 4], "srg": None,
                                "diameter": 2,
                                "coeffs": refs.cubes_complement_charpoly(s)}))
    for q in (5, 13, 17, 29, 37, 41, 53, 61):
        k, lam, mu = (q - 1) // 2, (q - 5) // 4, (q - 1) // 4
        items.append(Item(f"paley/{q}", refs.paley(q), rng, {
            "deza": [q, k, mu, lam], "srg": [q, k, lam, mu], "diameter": 2,
            "coeffs": refs.paley_charpoly(q)}))
    for i, v in enumerate([*range(16, 41, 2), 48, 56, 64]):
        k = 3 + i % 6
        items.append(Item(f"random/{v}-{k}", refs.random_regular(v, k, rng),
                          rng, {"regular": k}, fixed=False))
    return items


# Parameter tuples realized by graphs constructed in refs, so no sieve may
# reject them.
REALIZED_DEZA = ([(10, 3, 1, 0), (10, 6, 4, 3), (9, 4, 2, 1), (8, 3, 2, 0),
                  (16, 4, 2, 0), (32, 5, 2, 0), (64, 6, 2, 0), (14, 3, 1, 0),
                  (14, 4, 2, 0), (8, 4, 2, 0)]
                 + [(8 * s, 8 * s - 4, 8 * s - 6, 8 * s - 8)
                    for s in range(1, 9)]
                 + [(q, (q - 1) // 2, (q - 1) // 4, (q - 5) // 4)
                    for q in (5, 13, 17, 29, 37, 41, 53, 61)])
REALIZED_DDG = [(14, 4, 2, 0, 2, 7), (14, 3, 1, 0, 2, 7), (8, 3, 2, 0, 2, 4),
                (8, 4, 0, 2, 4, 2)]


def sieve_batch(seed, count=24):
    """Seeded tuples that pass the sieves' input validation."""
    rng = refs.seeded(seed, "sieve")
    deza_tuples, ddg_tuples = [], []
    for _ in range(count):
        k = rng.randrange(3, 31)
        b = rng.randrange(1, k + 1)
        deza_tuples.append((rng.randrange(k + 2, 3 * k + 11), k, b,
                            rng.randrange(0, b)))
        m, n = rng.randrange(2, 9), rng.randrange(2, 9)
        k = rng.randrange(2, m * n)
        ddg_tuples.append((m * n, k, rng.randrange(0, k + 1),
                           rng.randrange(0, k + 1), m, n))
    return deza_tuples, ddg_tuples


def normalize_ddg(obj, inverse):
    """ddg --json output with vertex labels mapped back to the unrelabelled
    graph and classes in sorted order, so it is equal for every seed."""
    if obj["proper"] is not None:
        proper = obj["proper"]
        classes = [sorted(inverse[x] for x in c) for c in proper["classes"]]
        order = sorted(range(len(classes)), key=classes.__getitem__)
        proper["classes"] = [classes[i] for i in order]
        if proper["quotient"] is not None:
            q = proper["quotient"]
            proper["quotient"] = [[q[i][j] for j in order] for i in order]
        obj["class_audits"] = [dict(obj["class_audits"][i], index=pos)
                               for pos, i in enumerate(order)]
        if isinstance(obj["a2_identity"], dict):
            a2 = obj["a2_identity"]
            a2["u"], a2["w"] = sorted((inverse[a2["u"]], inverse[a2["w"]]))
    return obj


class ExactPipeline(Workload):
    """Per-graph analysis commands on seeded inputs, plus sieve runs.

    Why: the only workload where spectra, sieve, ddg, graph6 and cli do
    most of the work, and where canon sees large, highly symmetric graphs
    instead of small partial ones.  The generator is not used.
    """

    name = "exact-pipeline"
    OPS = ("classify", "ddg", "spectrum", "certificate")

    def __init__(self, seed, workdir, references):
        super().__init__(seed, workdir, references)
        self.items = exact_items(seed)
        # the inputs each round of a pass analyses: every input under
        # REPEAT_V vertices, from round 1 on under another labelling, and
        # a share of the larger ones, dealt out by size so that the rounds
        # take about as long
        rng = refs.seeded(seed, "exact-pipeline", "rounds")
        small = [item for item in self.items if len(item.rows) < REPEAT_V]
        large = sorted((item for item in self.items
                        if len(item.rows) >= REPEAT_V),
                       key=lambda item: -len(item.rows))
        self.rounds = [
            [item.relabelled(rng, round_) if round_ else item
             for item in small] + large[round_::REPEATS]
            for round_ in range(REPEATS)]
        self.deza_tuples, self.ddg_tuples = sieve_batch(seed)

    def analyse(self, item):
        try:
            g6 = graph6.encode_graph6(item.graph)
            cert = canon.canonical_certificate(item.graph)
        except Exception as exc:  # counted as failed operations
            failed = (None, f"{type(exc).__name__}: {exc}")
            return dict.fromkeys(("g6",) + self.OPS, failed)
        return {"g6": g6,
                "classify": cli(["classify", "--g6", "-", "--json"],
                                stdin=g6 + "\n"),
                "ddg": cli(["ddg", g6, "--json"]),
                "spectrum": cli(["spectrum", g6, "--json"]),
                "certificate": (0, json.dumps(
                    [list(cert.canonical_labeling),
                     cert.certificate_bytes.hex()],
                    separators=(",", ":")) + "\n")}

    def sieve_ops(self):
        ops = [(f"sieve/scan-{family}", ["sieve", "scan", "--family", family,
                                         "--max", "40", "--json"])
               for family in ("n2", "small-n")]
        for label, family, tuples in (
                ("realized-deza", "deza", REALIZED_DEZA),
                ("realized-ddg", "ddg", REALIZED_DDG),
                ("batch-deza", "deza", self.deza_tuples),
                ("batch-ddg", "ddg", self.ddg_tuples)):
            ops += [(f"sieve/{label}/{i}",
                     ["sieve", family, *map(str, t), "--json"])
                    for i, t in enumerate(tuples)]
        return ops

    def run_pass(self, index, tracer=None):
        # An input under REPEAT_V vertices takes at most about 0.2 s, so
        # a stall of a shared machine, or the labelling the seed gave it
        # (the cost of canon depends on it), decides its reading.  These
        # inputs run in REPEATS rounds, each under its own labelling, and
        # their latency is the median; a stall lasting seconds then slows
        # one reading of several items rather than every reading of one.
        # The larger inputs are read once, spread over the rounds.
        runs = {item.name: [] for item in self.items}
        outputs = []
        for items in self.rounds:
            for item in items:
                if tracer is not None:
                    tracer.item = item.name
                t0 = time.perf_counter()
                out = self.analyse(item)
                runs[item.name].append(time.perf_counter() - t0)
                outputs.append((item, out))
        for op_id, argv in self.sieve_ops():
            if tracer is not None:
                tracer.item = op_id
            outputs.append((op_id, cli(argv)))
        return [statistics.median(runs[i.name]) for i in self.items], outputs

    @staticmethod
    def invariant(item, op, text):
        obj = canonical_json(text)
        if op == "ddg":
            obj = normalize_ddg(obj, item.inverse)
        elif op == "certificate":
            obj = obj[1]
        return sha(json.dumps(obj, separators=(",", ":")))

    def frozen(self, outputs):
        raw, invariant, sieve = {}, {}, {}
        for key, out in outputs:
            if isinstance(key, Item):
                if key.round:
                    continue
                raw[key.name] = {op: sha(out[op][1]) for op in self.OPS}
                if key.fixed:
                    invariant[key.name] = {
                        op: self.invariant(key, op, out[op][1])
                        for op in self.OPS}
            else:
                sieve[key] = sha(out[1])
        return {"seed": self.seed, "raw": raw, "invariant": invariant,
                "sieve": sieve}

    def check(self, outputs, outcome):
        default = self.seed == self.refs["seed"]
        first = {key.name: (key, out) for key, out in outputs
                 if isinstance(key, Item) and not key.round}
        for key, out in outputs:
            if not isinstance(key, Item):
                rc, text = out
                # the batch is drawn from the seed; the rest is fixed
                frozen = default or not key.startswith("sieve/batch")
                outcome.guard(key, lambda: (
                    rc == 0 and canonical_json(text) is not None
                    and (not frozen or sha(text) == self.refs["sieve"][key]),
                    f"rc={rc} or output differs from the frozen one"))
                continue
            for op in self.OPS:
                rc, text = out[op]

                def frozen_ok(item=key, op=op, rc=rc, text=text):
                    if rc != 0:
                        return False, f"rc={rc}"
                    canonical_json(text)
                    if default and not item.round and sha(text) != \
                            self.refs["raw"][item.name][op]:
                        return False, "differs from the default-seed output"
                    if item.fixed and self.invariant(item, op, text) != \
                            self.refs["invariant"][item.name][op]:
                        return False, "label-invariant part differs"
                    if item.round:
                        item0, out0 = first[item.name]
                        if self.invariant(item, op, text) != \
                                self.invariant(item0, op, out0[op][1]):
                            return False, "differs from round 0 up to labels"
                    return True, ""

                outcome.guard(f"{key.name} {op}", frozen_ok)

    def independent_checks(self, outputs, outcome):
        for key, out in outputs:
            if isinstance(key, Item):
                # every round is checked against the frozen outputs; the
                # costlier independent references only round 0
                if not key.round:
                    self._check_item(key, out, outcome)
            elif key.startswith("sieve/scan"):
                self._check_scan(key, out[1], outcome)
            elif key.startswith("sieve/realized"):
                outcome.guard(f"{key} feasible", lambda out=out: (
                    json.loads(out[1])["feasible"],
                    "a realized tuple was rejected"))

    def _check_item(self, item, out, outcome):
        name = item.name
        expect = item.expect
        outcome.guard(f"{name} graph6", lambda: (
            out["g6"] == refs.graph6_encode(item.rows),
            "graph6 differs from the reference encoder"))

        def classification():
            rep = json.loads(out["classify"][1])
            regular, _ = refs.pair_values(item.rows)
            if rep["regular"] != regular or rep["v"] != len(item.rows):
                return False, f"v/regular {rep['v']}/{rep['regular']}"
            for key in ("deza", "srg", "diameter", "regular"):
                if key in expect and rep[key] != expect[key]:
                    return False, f"{key} {rep[key]} != {expect[key]}"
            return True, ""

        outcome.guard(f"{name} classify reference", classification)

        def spectrum():
            coeffs = json.loads(out["spectrum"][1])["coeffs"]
            if "coeffs" in expect and coeffs != expect["coeffs"]:
                return False, "char poly differs from the known spectrum"
            k = max(r.bit_count() for r in item.rows)
            for x in (k + 1, -k - 2):
                if refs.poly_at(coeffs, x) != refs.charpoly_at(item.rows, x):
                    return False, f"char poly differs from Bareiss at x={x}"
            return True, ""

        outcome.guard(f"{name} spectrum reference", spectrum)
        outcome.guard(f"{name} certificate relabelled", lambda: (
            json.loads(out["certificate"][1])[1]
            == canon.canonical_certificate(
                item.other).certificate_bytes.hex(),
            "certificates of two relabellings differ"))

    @staticmethod
    def _check_scan(key, text, outcome):
        def all_rejected():
            rep = json.loads(text)
            if not rep["count"] or rep["feasible"]:
                return False, f"{rep['feasible']} of {rep['count']} feasible"
            if key.endswith("small-n"):
                if not all(r["params"][5] in (3, 4, 5, 6)
                           and r["params"][2] == r["params"][1] - 2
                           for r in rep["results"]):
                    return False, "tuple outside the n in 3..6, l1=k-2 family"
            return True, ""

        outcome.guard(f"{key} rejects all", all_rejected)


WORKLOADS = {w.name: w for w in (AuditT1, CensusPar, ExactPipeline)}


def load_references():
    return json.loads(REFERENCES.read_text())
