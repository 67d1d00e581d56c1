"""Layered benchmark of the deza toolkit.

    python3 perfbench/run.py --workload audit-t1 --seed 1 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source tree.  Each run starts fresh interpreters
with ``src`` on PYTHONPATH (the ``deza`` console script is not needed),
DEZA_MAX_VERTICES unset, PYTHONHASHSEED fixed and a private bytecode cache
that is warmed before any timing, so set-up time does not depend on the
cache state of the tree.  Outputs go to a temporary directory under
``.bench_out/``, removed at the end; a traced run leaves its spans in
``.bench_out/spans-<workload>.jsonl``.

setup_s is the median over several fresh interpreters of the time from
process start to ``ready`` (import, catalog verification, inputs).  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics; end-to-end metrics with --trace 0, per-layer ones with --trace 1.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("audit-t1", "census-par", "exact-pipeline")
SETUP_SAMPLES = 6
DEADLINE_S = 170


def environment(cache):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "DEZA_MAX_VERTICES"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(cache))
    return env


class Worker:
    """A worker.py process in its own session, so a timeout can end it
    together with any pool workers it started."""

    def __init__(self, args, env):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args], env=env,
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            start_new_session=True)

    def wait_ready(self):
        """Seconds from process start to its ready line."""
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.finish(10)
            raise RuntimeError("worker failed during set-up")
        return time.perf_counter() - self.t0

    def finish(self, timeout):
        try:
            out, _ = self.proc.communicate(timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.communicate()
            raise RuntimeError("worker exceeded its deadline")
        if self.proc.returncode:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out


def run(workload, seed, seconds, trace):
    start = time.perf_counter()
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_root))
    try:
        env = environment(workdir / "pycache")
        base = ["--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--workdir", str(workdir)]
        # the first start fills the bytecode cache and is not timed
        samples = []
        for i in range(SETUP_SAMPLES + 1):
            w = Worker(base + ["--setup-only"], env)
            ready = w.wait_ready()
            w.finish(30)
            if i:
                samples.append(ready)
        w = Worker(base + ["--trace", str(trace)], env)
        samples.append(w.wait_ready())
        out = w.finish(DEADLINE_S - (time.perf_counter() - start))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(samples)
    return result


def report(workload, result, trace):
    """Human-readable lines, then the metrics for the JSON line."""
    metrics = result["metrics"]
    if not trace:
        metrics = {"setup_s": (result["setup_s"], "s"), **metrics}
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{workload}] passes={result['passes']} attempted={attempted} "
          f"failed={failed} fail_frac={failed / attempted:.4f}"
          + (f" items={result['items']}" if "items" in result else ""))
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "deza" / "__init__.py").is_file():
        print(f"no deza source tree under {ROOT}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"[{name}] {exc}", file=sys.stderr)
            return 1
        metrics = report(name, result, args.trace)
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        total["metrics"].update((prefix + k, v) for k, v in metrics.items())
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
