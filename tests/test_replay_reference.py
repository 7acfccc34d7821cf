"""tools/replay_reference.py, the replay of bench/reference.json: a stored
command that still matches passes, and one whose entry differs is named."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "replay_reference", ROOT / "tools" / "replay_reference.py"
)
replay_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay_reference)


def test_replay_names_only_the_changed_entry():
    stored = json.loads((ROOT / "bench" / "reference.json").read_text())["verify"]
    same, changed = "verify T2.5 --n 12 --jobs 1", "verify T4.6 --n 12 --jobs 1"
    sample = {same: stored[same], changed: dict(stored[changed], sha256="0" * 64)}
    (line,) = replay_reference.replay(sample)
    assert line.startswith(changed + ": exit 0, sha256 " + stored[changed]["sha256"])
