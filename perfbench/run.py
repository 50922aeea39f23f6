"""Corpus benchmark for scorefeat's batch CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

One client runs ``scorefeat.cli.run`` over a seeded generated corpus, one
run at a time in a fresh interpreter, back to back, until ``--seconds``
have passed (a closed loop with one client). Every run's CSV and report are
checked against the generator's own facts (see ``checks.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics, as
medians over the runs. With ``--trace 1`` untraced and traced runs
alternate; the traced ones wrap the package's functions at each module
boundary (see ``tracing.py``) and the last line carries per-layer metrics.
The line before it holds the details: per-run values, CSV digests, machine
and input facts. Everything the benchmark writes goes under
``.perfbench_work/`` at the repository root.

End-to-end metrics, each the median over the untraced runs:

* ``wall_s``: the ``cli.run`` call, from argv to the written CSV and report.
* ``setup_s``: from starting the interpreter until ``scorefeat.cli`` is
  imported and the run's config is loaded and validated. Filling the cache
  for the warm workloads is not set-up: it is what ``cold`` measures.
* ``peak_rss_mb``: peak resident memory of the run's process plus that of
  its largest child process, should the program start workers.
* ``failed_share``: input files (scores and sidecars) with a failure entry
  in the report over all input files; it must equal the planted share.

``wall_s`` and ``setup_s`` are corrected for the speed of the machine during
the run: on a shared host the same code runs up to 1.7 times slower for
minutes at a time, which no statistic over one run removes. The child times
a fixed reference computation right before and right after ``cli.run`` (see
``child.reference``), in as many threads as the run's pool has. Each run's
times are scaled by ``REFERENCE_S * threads / mean(those two times)``, so
they read as seconds on a machine that runs the reference in ``REFERENCE_S``
per thread. The reference does not touch scorefeat, so a change to the
program moves the scaled times as much as the raw ones. The details line
keeps the raw times and the reference times.

Per-layer metrics are medians over the traced runs: self times per span
name, counts from return values, the report, the CSV and the cache dir.
Run the benchmark's own tests with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from corpus import HARMONY_DIR, XML_DIR, Corpus, build_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUN_TIMEOUT_S = 120

# The config of the README: every stock feature module, its process rules.
FEATURES = ["core", "ambitus", "melody", "tempo", "density", "texture", "lyrics",
            "scale", "key", "dynamics", "rhythm", "harmony"]
PROCESS = {
    "replace_missing_with_zero": ["Score_Function_.*"],
    "drop_columns": ["Part.*_Dyn_.*_Count"],
    "merge_groups": [{"pattern": "PartViolin.*_NumNotes", "target": "SoundViolin_NumNotes",
                      "stats": ["mean", "std"]}],
}


@dataclass(frozen=True)
class Workload:
    why: str
    n_xml: int
    n_midi: int
    warm: bool  # cache filled before timing; otherwise emptied before each run
    window: tuple[int, int] | None = None  # (window_size, window_overlap)
    parallelism: int = 1


# Sized so that one run takes 1-2 s on a 2-CPU machine: 11-28 runs in 28 s.
FULL = dict(n_xml=16, n_midi=6)
WORKLOADS = {
    "cold": Workload(
        "mixed MusicXML/MIDI corpus, cache emptied before each run: both parsers, cache key "
        "and store, and harmony attach do their work only here",
        **FULL, warm=False),
    "warm": Workload(
        "same corpus with the cache filled first: parsing is bypassed, so cache load and the "
        "feature modules lead; the control for cold",
        **FULL, warm=True),
    "window": Workload(
        "MusicXML subset, warm cache, windows of 4 measures overlapping by 2: slice_window, "
        "per-window features, table assembly, process and to_csv lead",
        n_xml=6, n_midi=0, warm=True, window=(4, 2)),
    "warm-parallel": Workload(
        "warm with parallelism 2, one worker per CPU on a 2-CPU machine: the only workload on "
        "the engine's pool path; warm is its serial control",
        **FULL, warm=True, parallelism=2),
}

STOCK_MODULES = ["core", "scoring", *[f for f in FEATURES if f != "core"]]
# child.reference(1) takes 0.065 s on a quiet 2-vCPU Xeon VM, 0.1 s when its host is busy.
REFERENCE_S = 0.08
COVERAGE_MIN = 0.95  # layer self times must cover this share of the traced wall


def _median(values):
    return statistics.median(values) if values else 0.0  # only when every run failed


def write_config(workdir: Path, workload: Workload) -> Path:
    import yaml  # a dependency of scorefeat, only needed once the checkout is found

    extract = {
        "xml_dir": XML_DIR,
        "harmony_dir": HARMONY_DIR,
        "features": FEATURES,
        "basic_modules": ["scoring"],
        "cache_dir": "cache",
        "parallelism": workload.parallelism,
    }
    if workload.window is not None:
        extract["window_size"], extract["window_overlap"] = workload.window
    config = {"extract": extract, "process": PROCESS,
              "output": "out/features.csv", "format": "csv"}
    path = workdir / "run.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return path


class Runner:
    """Spawns child runs in one workload directory and checks their output."""

    def __init__(self, workdir: Path, workload: Workload, corpus: Corpus):
        self.workdir = workdir
        self.workload = workload
        self.corpus = corpus
        self.config = write_config(workdir, workload)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def run(self, traced: bool) -> dict:
        if not self.workload.warm:
            shutil.rmtree(self.workdir / "cache", ignore_errors=True)
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        result_path = self.workdir / "child.json"
        result_path.unlink(missing_ok=True)
        flags = ["--trace"] if traced else []
        cli_args = ["--config", self.config.name, "--report", "out/report.jsonl"]
        with open(self.workdir / "child.log", "ab") as log:
            spawned = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
            cmd = [sys.executable, str(HERE / "child.py"), spawned, str(result_path),
                   str(self.workload.parallelism), *flags, "--", *cli_args]
            try:
                proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, stdout=log,
                                      stderr=log, timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return {"problems": [f"run took over {RUN_TIMEOUT_S} s"]}
        if proc.returncode != 0 or not result_path.exists():
            return {"problems": [f"child exited {proc.returncode}; see {self.workdir}/child.log"]}
        result = json.loads(result_path.read_text("utf-8"))
        problems = []
        if not Path(result["scorefeat"]).is_relative_to(ROOT / "src"):
            problems.append(f"ran scorefeat from {result['scorefeat']}, not this checkout")
        if result["exit_code"] != checks.EXPECTED_EXIT_CODE:
            problems.append(f"cli exit code {result['exit_code']}")
        try:
            csv_bytes = (out / "features.csv").read_bytes()
            report_text = (out / "report.jsonl").read_text("utf-8")
        except OSError as exc:
            return {"problems": problems + [f"missing output: {exc}"]}
        csv_text = csv_bytes.decode("utf-8")
        report_problems, result["failed_share"] = checks.check_report(self.corpus, report_text)
        problems += report_problems
        if result["failed_share"] != checks.failed_share(self.corpus):
            problems.append(f"failed share {result['failed_share']} is not the planted share")
        problems += checks.check_table(self.corpus, csv_text, self.workload.window)
        result["csv_sha256"] = hashlib.sha256(csv_bytes).hexdigest()
        result["csv_bytes"] = len(csv_bytes)
        table = list(csv.reader(io.StringIO(csv_text)))
        result["csv_rows"] = max(len(table) - 1, 0)
        result["csv_columns"] = len(table[0]) if table else 0
        result["report"] = checks.report_summary(report_text) or {}
        result["scale"] = (REFERENCE_S * self.workload.parallelism
                           / statistics.mean(result["reference_s"]))
        result["cache_bytes"] = sum(p.stat().st_size for p in (self.workdir / "cache").rglob("*")
                                    if p.is_file())
        result["problems"] = problems
        return result


def layer_metrics(run: dict, workload: Workload, corpus: Corpus) -> tuple[dict, list[str]]:
    """Per-layer values from one traced run, plus the trace's own checks."""
    trace = run["trace"]
    self_s, total_s, calls = tracing.layer_times(trace["spans"])
    counts = trace["counts"]
    wall = total_s.get("cli.run", 0.0)
    summary = run["report"]
    hits = summary.get("cache_hits", 0)
    lookups = hits + summary.get("parsed", 0)
    m = {
        "musicxml.parse_s": self_s.get("musicxml.parse", 0.0),
        "musicxml.calls": calls.get("musicxml.parse", 0),
        "musicxml.warnings": counts.get("musicxml.warnings", 0),
        "musicxml.skipped": counts.get("musicxml.skipped", 0),
        "midi.import_s": self_s.get("midi.import", 0.0),
        "midi.calls": calls.get("midi.import", 0),
        "midi.warnings": counts.get("midi.warnings", 0),
        "cache.key_s": self_s.get("cache.key", 0.0),
        "cache.store_s": self_s.get("cache.store", 0.0),
        "cache.load_s": self_s.get("cache.load", 0.0),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.entry_bytes": run["cache_bytes"],
        "harmony.parse_s": self_s.get("harmony.parse", 0.0),
        "harmony.attach_s": self_s.get("harmony.attach", 0.0),
        "harmony.annotations": counts.get("harmony.annotations", 0),
        "model.slice_window_s": self_s.get("model.slice_window", 0.0),
        "model.windows": calls.get("model.slice_window", 0),
    }
    for name in STOCK_MODULES:
        m[f"features.{name}_s"] = self_s.get(f"features.{name}", 0.0)
    m["features.total_s"] = sum(v for k, v in self_s.items() if k.startswith("features."))
    m["features.units"] = run["csv_rows"]
    m.update({
        "table.append_s": self_s.get("table.append", 0.0),
        "table.to_csv_s": self_s.get("table.to_csv", 0.0),
        "table.columns": run["csv_columns"],
        "table.csv_bytes": run["csv_bytes"],
        "postprocess.process_s": self_s.get("postprocess.process", 0.0),
        "engine.extract_s": total_s.get("engine.extract", 0.0),
        "engine.self_s": self_s.get("engine.extract", 0.0),
        "engine.cpu_per_wall": trace["extract_cpu_s"] / total_s["engine.extract"]
        if total_s.get("engine.extract") else 0.0,
        "engine.load_or_parse_self_s": self_s.get("engine.load_or_parse", 0.0),
        "cli.collect_paths_s": self_s.get("cli.collect_paths", 0.0),
        "cli.load_config_s": self_s.get("cli.load_config", 0.0),
    })
    covered = sum(v for k, v in self_s.items() if k != "cli.run")
    m["trace.coverage"] = covered / wall if wall else 0.0

    problems = []
    if m["trace.coverage"] < COVERAGE_MIN:
        problems.append(f"layer self times cover {m['trace.coverage']:.3f} of the traced wall")
    unparsable = Counter("midi" if path.endswith(".mid") else "musicxml"
                         for path, stage in corpus.planted_failures.items() if stage == "parse")
    if workload.warm:
        if m["cache.hit_ratio"] != 1.0:
            problems.append(f"warm cache hit ratio {m['cache.hit_ratio']}")
        if calls.get("cache.store", 0):
            problems.append("warm run stored cache entries")
        want_calls = unparsable  # only inputs that never parse, so never cache, reach a parser
    else:
        if m["cache.hit_ratio"] != 0.0:
            problems.append(f"cold cache hit ratio {m['cache.hit_ratio']}")
        want_calls = unparsable + Counter(s.kind for s in corpus.scores)
    if (m["musicxml.calls"], m["midi.calls"]) != (want_calls["musicxml"], want_calls["midi"]):
        problems.append(f"parser calls {m['musicxml.calls']}/{m['midi.calls']}, "
                        f"expected {want_calls['musicxml']}/{want_calls['midi']}")
    units = len(checks.expected_units(corpus, workload.window))
    if m["features.units"] != units:
        problems.append(f"{m['features.units']} rows, expected {units}")
    if m["model.windows"] != (units if workload.window else 0):
        problems.append(f"{m['model.windows']} windows sliced on a workload with "
                        f"window {workload.window}")
    annotations = sum(s.annotations for s in corpus.scores)
    if m["harmony.annotations"] != annotations:
        problems.append(f"{m['harmony.annotations']} annotations parsed, planted {annotations}")
    return m, problems


LAYER_UNITS = {"calls": "count", "warnings": "count", "skipped": "count", "annotations": "count",
               "windows": "count", "units": "count", "columns": "count",
               "entry_bytes": "bytes", "csv_bytes": "bytes", "hit_ratio": "ratio",
               "coverage": "ratio", "cpu_per_wall": "s/s"}


def layer_unit(name: str) -> str:
    suffix = name.split(".", 1)[1]
    return "s" if suffix.endswith("_s") else LAYER_UNITS[suffix]


def machine_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scorefeat" / "cli.py").is_file():
        print(f"error: no scorefeat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("error: scorefeat sources do not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    corpus = build_corpus(args.seed, workload.n_xml, workload.n_midi)
    corpus.write(workdir)
    runner = Runner(workdir, workload, corpus)

    problems: list[str] = []
    digests: set[str] = set()
    if workload.warm:
        fill = runner.run(traced=False)
        problems += [f"cache fill: {p}" for p in fill["problems"]]
        digests.add(fill.get("csv_sha256"))

    plain: list[dict] = []
    traced: list[dict] = []
    started = time.perf_counter()
    while True:
        want_trace = args.trace == 1 and len(traced) < len(plain)
        result = runner.run(traced=want_trace)
        (traced if want_trace else plain).append(result)
        problems += result["problems"]
        digests.add(result.get("csv_sha256"))
        if problems or (time.perf_counter() - started >= args.seconds
                        and (args.trace == 0 or traced)):
            break
    if len(digests) != 1:
        problems.append(f"CSV digests differ between runs: {sorted(map(str, digests))}")

    ok_plain = [r for r in plain if not r["problems"]]
    ok_traced = [r for r in traced if not r["problems"]]
    details = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "runs": len(plain), "traced_runs": len(traced),
        "wall_s": [r["wall_s"] * r["scale"] for r in ok_plain],
        "setup_s": [r["setup_s"] * r["scale"] for r in ok_plain],
        "unscaled_wall_s": [r["wall_s"] for r in ok_plain],
        "unscaled_setup_s": [r["setup_s"] for r in ok_plain],
        "reference_s": [r["reference_s"] for r in ok_plain],
        "cpu_s": [r["cpu_s"] for r in ok_plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok_plain],
        "csv_sha256": sorted(d for d in digests if d),
        "machine": machine_facts(),
        "inputs": {"files": corpus.input_files, "bytes": corpus.input_bytes,
                   "scores": len(corpus.scores), "planted_failures": len(corpus.planted_failures),
                   "skippable_elements": sum(s.skipped_elements for s in corpus.scores),
                   "planted_failed_share": checks.failed_share(corpus)},
    }

    if args.trace == 0:
        metrics = {
            "wall_s": (_median(details["wall_s"]), "s"),
            "setup_s": (_median(details["setup_s"]), "s"),
            "peak_rss_mb": (_median([r["peak_rss_mb"] for r in ok_plain]), "MB"),
            "failed_share": (_median([r["failed_share"] for r in ok_plain]), "ratio"),
        }
    else:
        per_run = []
        for r in ok_traced:
            values, trace_problems = layer_metrics(r, workload, corpus)
            problems += trace_problems
            per_run.append(values)
        metrics = {name: (_median([v[name] for v in per_run]), layer_unit(name))
                   for name in (per_run[0] if per_run else ())}
        details["traced_wall_s"] = [r["wall_s"] * r["scale"] for r in ok_traced]
        metrics["trace.overhead_s"] = (_median(details["traced_wall_s"])
                                       - _median(details["wall_s"]), "s")
        # A function the package no longer has reads 0; its time goes to its caller.
        details["untraced_functions"] = sorted(
            {name for r in ok_traced for name in r["trace"]["missing"]})
        if ok_traced:
            (workdir / "spans.json").write_text(json.dumps(ok_traced[-1]["trace"]), "utf-8")

    details["problems"] = problems[:20]
    (workdir / "result.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(plain) + len(traced),
        "failed": sum(1 for r in plain + traced if r["problems"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
