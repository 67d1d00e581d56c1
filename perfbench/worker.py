"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with ``src`` on PYTHONPATH.  Set-up (import, catalog
verification, input generation) ends with a ``ready`` line on stdout; with
--setup-only the process then exits, which is how run.py samples set-up
time.  Otherwise the workload runs in passes until --seconds have elapsed
(at least one), its outputs are checked, and one JSON result line follows.

With --trace 1 the run makes one untraced pass, then one traced pass with
the tracer installed, and reports per-layer metrics instead.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux; for children it is the largest child
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


# Item latencies are summarised by means over a quarter or half of the
# items, not by one order statistic: one item's reading on a shared machine
# moves by a fifth from run to run, and which item sits at a given rank
# depends on the seed.

def iqm(values):
    """Interquartile mean: the mean of the middle half of the values (of
    all of them when there are fewer than four)."""
    s = sorted(values)
    q = len(s) // 4
    return statistics.mean(s[q:len(s) - q])


def tail(values):
    """Mean of the slowest quarter of the values, at least one (so the
    maximum when there are fewer than eight)."""
    s = sorted(values)
    return statistics.mean(s[-max(1, len(s) // 4):])


def measure(wl, index, tracer=None):
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    times, outputs = wl.run_pass(index, tracer)
    wall = time.perf_counter() - t0
    # sampled before any check runs, which has its own memory needs
    return {"wall": wall, "cpu": cpu_seconds() - cpu0, "times": times,
            "rss": peak_rss_mb(), "outputs": outputs}


def check(wl, outputs, outcome, independent):
    wl.check(outputs, outcome)
    if independent:
        wl.independent_checks(outputs, outcome)
    wl.cleanup(outputs)


# every cell a workload enumerates, so each traced run reports the same
# names (0 where the workload does not enumerate the cell)
CELLS = ([f"census.cell.{v}_3.s" for v in (6, 8, 10, 12, 14)]
         + [f"census.cell.{v}_4.s" for v in range(5, 14)]
         + ["census.cell.11_4.unpruned.s"])


def cells(spans):
    """census.cell.<v>_<k>.s: wall time from a generate_regular call to its
    last graph, averaged over the windows that enumerate the cell."""
    per = {}
    for s in spans:
        if s["name"] == "census.generate_regular":
            v, k = s["args"][:2]
            key = f"census.cell.{v}_{k}" + (
                ".unpruned" if s["prune"] == "None" else "") + ".s"
            per.setdefault(key, []).append(s["end"] - s["start"])
    names = CELLS + sorted(set(per) - set(CELLS))
    return {name: statistics.mean(per.get(name, [0.0])) for name in names}


def layer_metrics(tr, catalog_s, overhead):
    calls, busy, self_s = tr.layer_metrics()
    m = {}
    for name in ("census.build_record", "canon.refine", "canon.canon_data",
                 "canon.canonical_certificate", "spectra.char_poly",
                 "classify.classify", "ddg.ddg_detect", "graph6.encode_graph6",
                 "graph6.decode_graph6", "sieve.deza_sieve",
                 "sieve.ddg_sieve", "cli.main"):
        m[name + ".calls"] = (calls[name], "count")
    for name in ("census.generate_regular", "census.audit_theorem",
                 "census.build_record",
                 "census.census", "canon.refine", "canon.canon_data",
                 "canon.canonical_certificate", "spectra.char_poly",
                 "spectra.factor_adjacency_poly", "spectra.ddg_spectrum_check",
                 "spectra.adjacency_square_identity", "classify.classify",
                 "ddg.ddg_detect", "ddg.class_audits", "graph6.encode_graph6",
                 "graph6.decode_graph6", "sieve.deza_sieve",
                 "sieve.ddg_sieve", "cli.main"):
        m[name + ".self_s"] = (self_s[name], "s")
    gen = [s for s in tr.spans if s["name"] == "census.generate_regular"]
    m["census.generate_regular.busy_s"] = (busy["census.generate_regular"],
                                           "s")
    m["census.generate_regular.yielded"] = (sum(s["yielded"] for s in gen),
                                            "count")
    for key, value in cells(tr.spans).items():
        m[key] = (value, "s")
    pools = [s for s in tr.spans if s["name"] == "census.pool"]
    child = sum(p["child_cpu_s"] for p in pools)
    capacity = sum(p["jobs"] * (p["end"] - p["start"]) for p in pools)
    m["census.pool.child_cpu_s"] = (child, "s")
    m["census.pool.busy_frac"] = (child / capacity if capacity else 0.0,
                                  "ratio")
    refine = tr.counts[("census", "canon.refine")]
    canon = tr.counts[("census", "canon.canon_data")]
    m["canon.root_filter.pass_ratio"] = (canon / refine if refine else 0.0,
                                         "ratio")
    m["canon.last_orbit.accept_ratio"] = (
        tr.counts["last_orbit.accepted"] / canon if canon else 0.0, "ratio")
    m["sieve.infeasible"] = (tr.counts["sieve.infeasible"], "count")
    m["catalog.verify_catalog.s"] = (catalog_s, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    problems = {name: found for name, found
                in workloads.catalog.verify_catalog().items() if found}
    catalog_s = time.perf_counter() - t0
    if problems:
        print(f"catalog verification failed: {problems}", file=sys.stderr)
        return 1
    wl = workloads.WORKLOADS[args.workload](
        args.seed, args.workdir, workloads.load_references())
    print("ready", flush=True)
    if args.setup_only:
        return 0

    outcome = workloads.Outcome()
    passes = []
    start = time.perf_counter()
    while True:
        p = measure(wl, len(passes))
        check(wl, p.pop("outputs"), outcome, independent=not passes)
        passes.append(p)
        if args.trace or time.perf_counter() - start >= args.seconds:
            break
    result = {"passes": len(passes)}
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = measure(wl, len(passes), tr)
        finally:
            tr.uninstall()
        check(wl, traced.pop("outputs"), outcome, independent=False)
        # next to the run's temporary directory, which run.py removes
        tr.write(Path(args.workdir).parent / f"spans-{args.workload}.jsonl")
        result["metrics"] = layer_metrics(
            tr, catalog_s, traced["wall"] / passes[0]["wall"])
    else:
        items = [t for p in passes for t in p["times"]]
        result["items"] = len(items)
        result["metrics"] = {
            "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
            "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
            "peak_rss_mb": (passes[0]["rss"], "MB"),
            "item_iqm_ms": (iqm(items) * 1e3, "ms"),
            "item_tail_ms": (tail(items) * 1e3, "ms"),
        }
    result.update(attempted=outcome.attempted, failed=len(outcome.failures),
                  failures=outcome.failures[:20])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
