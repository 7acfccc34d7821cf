"""Golden report bytes: the behavioural contract of every claim check.

For each case, the SHA-256 of the JSON report (its `elapsed` line removed) and
of the CSV report, plus the verdict, must match `golden_reports.json`. The
cases are all 16 claims at default parameters, the T4.4 alias, a single-s
clique-tree run, a vacuous diameter class, an L3.1 violation, larger samples
of both clique-move lemmas, and T3.3 at n = 7, whose ties are isomorphic to
the clique path.

Regenerate the digests only for an intended report change:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from blockspectra.verify import CLAIMS, run_check

GOLDEN = Path(__file__).with_name("golden_reports.json")

CASES = {tid: {} for tid in sorted(CLAIMS)}
CASES.update(
    {
        "T4.4": {},
        "T2.4 n=7 s=3": {"n": 7, "s": 3},
        "L2.3 n=5 d=4": {"n": 5, "d": 4},
        "L3.1 n=5 d=3": {"n": 5, "d": 3},
        "L2.1 n=12 trials=300 seed=3": {"n": 12, "trials": 300, "seed": 3},
        "L4.2 n=12 trials=300 seed=3": {"n": 12, "trials": 300, "seed": 3},
        "T3.3 n=7": {"n": 7},
    }
)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digests(case):
    report = run_check(case.split()[0], jobs=1, **CASES[case])
    body = "".join(
        line for line in report.to_json().splitlines(True) if '"elapsed"' not in line
    )
    return {"passed": report.passed, "json": _sha(body), "csv": _sha(report.to_csv())}


def test_cases_cover_every_claim():
    assert set(CLAIMS) <= set(CASES)
    assert set(json.loads(GOLDEN.read_text())) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case):
    assert digests(case) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: digests(c) for c in sorted(CASES)}, indent=2) + "\n")
