"""Self-test of the benchmark's checker.

    python3 perfbench/selftest.py

Shows that the checks can fail: a census file with one flipped byte and a
spectrum with one wrong coefficient must each count as failed operations,
while the untouched outputs pass.  Also shows that changing the seed
changes every exact-pipeline input.  Exits 1 if any of this does not hold.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def failures(wl, outputs):
    outcome = workloads.Outcome()
    wl.check(outputs, outcome)
    wl.independent_checks(outputs, outcome)
    return outcome.failures


def census_byte_flip(tmp, references):
    wl = workloads.CensusPar(workloads.DEFAULT_SEED, tmp, references)
    wl.RUNS = [r for r in wl.RUNS if r[0] == "all-11-4"]
    _, outputs = wl.run_pass(0)
    good = failures(wl, outputs)
    op_id, (rc, prefix) = outputs[0]
    bad = Path(tmp) / "corrupted"
    for suffix in (".g6", ".meta.jsonl"):
        shutil.copyfile(f"{prefix}{suffix}", f"{bad}{suffix}")
    g6 = Path(f"{bad}.g6")
    data = bytearray(g6.read_bytes())
    data[len(data) // 2] ^= 1
    g6.write_bytes(bytes(data))
    broken = failures(wl, [(op_id, (rc, bad))])
    return not good and len(broken) >= 1, good, broken


def spectrum_coefficient(references):
    wl = workloads.ExactPipeline(workloads.DEFAULT_SEED, ".", references)
    item = next(i for i in wl.items if i.name == "hypercube/4")
    out = wl.analyse(item)
    good = failures(wl, [(item, out)])
    obj = workloads.canonical_json(out["spectrum"][1])
    obj["coeffs"][3] += 1
    bad = dict(out, spectrum=(0, json.dumps(
        obj, separators=(",", ":")) + "\n"))
    broken = failures(wl, [(item, bad)])
    return not good and len(broken) >= 1, good, broken


def seed_changes_inputs():
    one = [i.rows for i in workloads.exact_items(1)]
    two = [i.rows for i in workloads.exact_items(2)]
    same = sum(a == b for a, b in zip(one, two))
    return same == 0, [], [f"{same} of {len(one)} inputs unchanged"]


def main():
    references = workloads.load_references()
    ok = True
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, test in (
                ("flipped census byte fails",
                 lambda: census_byte_flip(tmp, references)),
                ("wrong polynomial coefficient fails",
                 lambda: spectrum_coefficient(references)),
                ("seed changes every exact-pipeline input",
                 seed_changes_inputs)):
            passed, good, broken = test()
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {name}")
            for line in good:
                print(f"  unexpected failure on good output: {line}")
            for line in broken:
                print(f"  detected: {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
