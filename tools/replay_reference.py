"""Replay the stored verify commands of bench/reference.json on this checkout.

    python3 tools/replay_reference.py

Runs every stored argv in a fresh `python -m blockspectra` process on the
source tree (`src` first on PYTHONPATH, BLAS threads pinned to 1) and
compares its exit code and report digest (`bench/checks.report_digest`, the
report bytes minus `elapsed`) with the stored entry, one thread per CPU
each waiting on its own subprocess. Prints each mismatch, in stored order,
and a summary line; exits 1 if any command mismatches, else 0. A change
meant to keep the report bytes quotes this command's summary as its
evidence.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402  (bench/checks.py, found through the line above)

REFERENCE = ROOT / "bench" / "reference.json"
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


def run(key):
    """Exit code and report digest of one stored argv string, run afresh."""
    proc = subprocess.run(
        [sys.executable, "-m", "blockspectra", *key.split()],
        cwd=ROOT,
        env=ENV,
        capture_output=True,
    )
    return proc.returncode, checks.report_digest(proc.stdout)


def replay(stored):
    """One line per stored command ({argv string: {"exit", "sha256"}}) whose
    fresh run differs from its entry, in stored order."""
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        results = pool.map(run, stored)
        return [
            f"{key}: exit {code}, sha256 {digest}; "
            f"stored exit {ref['exit']}, sha256 {ref['sha256']}"
            for (key, ref), (code, digest) in zip(stored.items(), results)
            if (code, digest) != (ref["exit"], ref["sha256"])
        ]


def main():
    with open(REFERENCE, encoding="utf-8") as fh:
        stored = json.load(fh)["verify"]
    mismatches = replay(stored)
    for line in mismatches:
        print(line)
    print(f"{len(stored)} verify commands replayed, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
