"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402

REPORT = (
    b'{\n  "theorem": "T2.4",\n  "params": {\n    "n": 6\n  },\n  "checked": 12,\n'
    b'  "excluded": 3,\n  "violations": [],\n  "ties": 1,\n  "elapsed": 0.123,\n'
    b'  "notes": []\n}\n'
)


def test_report_digest_ignores_only_elapsed():
    ref = {"exit": 0, "sha256": checks.report_digest(REPORT)}
    assert checks.check_verify(0, REPORT, ref)
    assert checks.check_verify(0, REPORT.replace(b"0.123", b"9.5"), ref)


def test_one_changed_report_byte_fails():
    ref = {"exit": 0, "sha256": checks.report_digest(REPORT)}
    value_start = REPORT.index(b'"elapsed": ') + len(b'"elapsed": ')
    value_end = REPORT.index(b"\n", value_start)
    for i in range(len(REPORT)):
        if value_start <= i < value_end:
            continue  # the elapsed value itself is outside the contract
        changed = REPORT[:i] + bytes([REPORT[i] ^ 1]) + REPORT[i + 1 :]
        assert not checks.check_verify(0, changed, ref), i


def test_wrong_exit_code_fails():
    digest = checks.report_digest(REPORT)
    assert not checks.check_verify(2, REPORT, {"exit": 0, "sha256": digest})
    assert not checks.check_verify(0, REPORT, {"exit": 2, "sha256": digest})
    assert checks.check_verify(2, REPORT, {"exit": 2, "sha256": digest})
    # without a stored reference the command must exit 0 with no violations
    assert checks.check_verify(0, REPORT, None)
    assert not checks.check_verify(2, REPORT, None)
    violated = REPORT.replace(b'"violations": []', b'"violations": [{}]')
    assert not checks.check_verify(0, violated, None)


def test_spectrum_check_against_eigh():
    n, edges = checks.family_edges("broom:8")
    ref = checks.spectrum_reference(checks.matrix(n, edges, "distance"))
    radius, vector = ref
    good = f"{radius:#.12g}\n{' '.join(f'{v:#.12g}' for v in vector)}\n".encode()
    assert checks.check_spectrum(0, good, ref)
    assert not checks.check_spectrum(1, good, ref)
    bad = f"{radius * (1 + 1e-6):#.12g}\n{' '.join(f'{v:#.12g}' for v in vector)}\n".encode()
    assert not checks.check_spectrum(0, bad, ref)
    flipped = f"{radius:#.12g}\n{' '.join(f'{v:#.12g}' for v in vector[::-1])}\n".encode()
    assert not checks.check_spectrum(0, flipped, ref)


@pytest.mark.parametrize(
    "spec", ["path:7", "broom:9", "cliquepath:3,4,2", "cliquestar:3,2;4;3"]
)
def test_family_edges_match_the_package(spec):
    from blockspectra import parse_family_spec

    g = parse_family_spec(spec)
    assert checks.same_graph_spectrum(g.n, list(g.edges), *checks.family_edges(spec))


def _layer_functions():
    import importlib

    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"blockspectra.{layer}")
        for name in mod.__all__:
            if tracer.traceable(getattr(mod, name)):
                yield layer, name, getattr(mod, name)


def test_wrappers_cover_every_public_function():
    originals = list(_layer_functions())
    holders = [m for k, m in sys.modules.items() if k.split(".")[0] == "blockspectra"]
    before = {id(fn) for _, _, fn in originals}
    t = tracer.Tracer()
    restore = t.install()
    try:
        assert {f"{layer}.{name}" for layer, name, _ in originals} <= t.wrapped
        assert t.absent == []
        for holder in holders:
            for attr, value in vars(holder).items():
                assert id(value) not in before, f"{holder.__name__}.{attr} not wrapped"
    finally:
        restore()
    assert [fn for _, _, fn in _layer_functions()] == [fn for _, _, fn in originals]


def test_missing_public_name_is_reported_absent(monkeypatch):
    import blockspectra.transforms as transforms

    monkeypatch.setattr(
        transforms, "__all__", [x for x in transforms.__all__ if x != "move_clique"]
    )
    t = tracer.Tracer()
    restore = t.install()
    restore()
    assert "transforms.move_clique" in t.absent
    metrics = tracer.layer_metrics(tracer.merge([t.summary()]), instances=0)
    assert metrics["transforms.moves"] == 0


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    inner = t.wrap("graphs.inner", "graphs", lambda: time.sleep(0.02))

    def body():
        inner()
        time.sleep(0.01)

    outer = t.wrap("verify.outer", "verify", body)
    outer()
    calls, incl, own = t.spans["verify.outer"]
    assert calls == 1
    assert incl >= 0.03
    assert 0.01 <= own < incl - 0.015
    assert t.layer_self["graphs"] == pytest.approx(t.spans["graphs.inner"][1])


def _child(tmp_path, traced, argv):
    stats = tmp_path / f"stats{traced}.json"
    out = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(stats), str(traced), *argv],
        capture_output=True,
        timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    return out, json.loads(stats.read_text())


def test_traced_run_keeps_report_bytes(tmp_path):
    argv = ["verify", "T2.4", "--n", "6", "--jobs", "1"]
    plain, plain_stats = _child(tmp_path, 0, argv)
    traced, traced_stats = _child(tmp_path, 1, argv)
    assert plain.returncode == traced.returncode == 0
    assert checks.report_digest(plain.stdout) == checks.report_digest(traced.stdout)
    assert plain_stats["trace"] is None
    summary = traced_stats["trace"]
    assert summary["absent"] == []
    assert summary["spans"]["cli.main"][0] == 1
    assert summary["counters"]["report_instances"] == checks.report_instances(traced.stdout)
    metrics = tracer.layer_metrics(tracer.merge([summary]), instances=1)
    assert metrics["spectral.radii"] > 0 and metrics["families.classes_per_s"] > 0
