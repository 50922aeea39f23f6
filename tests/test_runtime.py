"""The runtime needs PyYAML only: numpy is a test dependency.

Each check runs in a fresh interpreter, so what the test suite itself has
imported does not count.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import scorefeat
from util import midi_bytes, midi_meta_track, midi_note_events, random_musicxml

# A finder ahead of every other one that refuses numpy and its submodules.
BLOCK_NUMPY = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockNumpy())
"""

RUN_CLI = "import sys\nfrom scorefeat.cli import run\nsys.exit(run(sys.argv[1:]))\n"


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(scorefeat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_importing_the_cli_leaves_numpy_out():
    done = _python("import sys, scorefeat.cli\nprint('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_importing_the_cli_leaves_the_thread_pool_out():
    done = _python("import sys, scorefeat.cli\nprint('concurrent.futures' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_a_run_with_numpy_blocked_writes_the_same_csv(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = random.Random(5)
    for i in range(4):
        (corpus / f"s{i}.musicxml").write_bytes(random_musicxml(rng)[0])
    notes = [(480 * i, 480 * i + 360, 60 + 2 * i, 80) for i in range(8)]
    (corpus / "m.mid").write_bytes(midi_bytes(
        [midi_meta_track(name="Flute", timesig=(4, 4)), midi_note_events(notes)]))
    (corpus / "s0.harmony.tsv").write_text(
        "measure\tbeat\tlabel\tkey\n1\t0\tI\tC\n", encoding="utf-8")

    outputs = []
    for prelude in ("", BLOCK_NUMPY):
        out = tmp_path / f"features{len(outputs)}.csv"
        done = _python(prelude + RUN_CLI, "--xml-dir", str(corpus), "--output", str(out),
                       "--report", str(tmp_path / "report.jsonl"))
        assert done.returncode == 0, done.stderr
        outputs.append(out.read_text(encoding="utf-8"))
    assert outputs[0] == outputs[1]
    header = outputs[0].splitlines()[0]
    for name in ("Score_KS_Correlation", "_DurationStd", "_AbsIntervalStd"):
        assert name in header
