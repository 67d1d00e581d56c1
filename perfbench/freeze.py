"""Write references.json: the outputs every benchmark run is checked against.

    PYTHONHASHSEED=0 python3 perfbench/freeze.py

Run it only on a commit whose outputs are known good; it records
- the SHA-256 of each audit-t1 JSON report and its exit status,
- the census-par file digests, taken from serial (--jobs 1) runs, which
  the --jobs 2 runs of the benchmark must reproduce,
- each exact-pipeline output at the default seed, raw and with vertex
  labels normalised away (the latter is checked at every seed).
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cls in (workloads.AuditT1, workloads.CensusPar,
                    workloads.ExactPipeline):
            wl = cls(workloads.DEFAULT_SEED, tmp, {})
            if cls is workloads.CensusPar:
                wl.jobs = "1"
            _, outputs = wl.run_pass(0)
            refs[cls.name] = wl.frozen(outputs)
            wl.cleanup(outputs)
            print(f"froze {cls.name}", file=sys.stderr)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                    + "\n")


if __name__ == "__main__":
    main()
