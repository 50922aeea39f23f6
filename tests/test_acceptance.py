"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager
from statistics import correlation

import pytest

from scorefeat.engine import ExtractorConfig, RunReport, extract
from scorefeat.features.pitch import (
    KRUMHANSL_MAJOR,
    KRUMHANSL_MINOR,
    estimate_key_ks,
    key_features,
    profile_from_score,
)
from scorefeat.model import slice_window
from scorefeat.musicxml import parse_musicxml
from scorefeat.postprocess import MergeGroup, ProcessorConfig, merge_statistics, process
from scorefeat.table import FeatureTable
from util import (
    corpus_musicxml,
    csv_text,
    musicxml_doc,
    mxl_bytes,
    note,
    part,
    quarters,
    random_model_score,
    random_musicxml,
    score,
)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} {title}: FAIL")
        raise
    print(f"\nACCEPTANCE {num} {title}: PASS")


# ---------------------------------------------------------------------------
# shared 200-score synthetic corpus and its timed runs

@pytest.fixture(scope="module")
def corpus200(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus200")
    rng = random.Random(20250811)
    paths = []
    for i in range(200):
        p = root / f"score{i:03d}.musicxml"
        p.write_bytes(corpus_musicxml(rng))
        paths.append(p)
    return root, paths


@pytest.fixture(scope="module")
def corpus_runs(corpus200):
    """Three extraction runs over the 200-score corpus (uncached, cached, and
    cached again), shared by criteria 2/6."""
    root, paths = corpus200
    cache = root / "cache"

    def run():
        config = ExtractorConfig(cache_dir=cache)
        report = RunReport()
        start = time.perf_counter()
        table = extract(config, paths, report=report)
        elapsed = time.perf_counter() - start
        assert not report.failures
        return table, elapsed, report

    uncached_table, uncached_s, uncached_report = run()
    cached_table, cached_s, cached_report = run()
    cached_again, _, _ = run()
    return {
        "uncached_csv": csv_text(uncached_table),
        "cached_csv": csv_text(cached_table),
        "cached_again_csv": csv_text(cached_again),
        "uncached_s": uncached_s,
        "cached_s": cached_s,
        "uncached_report": uncached_report,
        "cached_report": cached_report,
    }


# ---------------------------------------------------------------------------

def test_criterion_1_windowing(tmp_path):
    with criterion(1, "windowing"):
        start_time = time.perf_counter()
        measures = [[{"step": "CDEFGABCDE"[m], "octave": 4, "dur": 8},
                     {"step": "E", "octave": 4, "dur": 8}] for m in range(10)]
        path = tmp_path / "ten.musicxml"
        path.write_bytes(musicxml_doc([("Violin", measures)]))

        table = extract(ExtractorConfig(window_size=3, window_overlap=2), [path])
        assert table.num_rows == 8

        spans = list(zip(table.columns["WindowStart"], table.columns["WindowEnd"]))
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            shared = set(range(s1, e1 + 1)) & set(range(s2, e2 + 1))
            assert len(shared) == 2  # consecutive windows share exactly 2 measures

        parsed, _ = parse_musicxml(path.read_bytes())
        whole = [sum(1 for e in p.events if e.kind == "note" and not e.grace
                     and e.tie in ("none", "start")) for p in parsed.parts]
        for size in (1, 2, 5):
            totals = [0] * len(parsed.parts)
            start = 1
            while start <= parsed.num_measures:
                window = slice_window(parsed, start, size)
                for i, p in enumerate(window.parts):
                    totals[i] += sum(1 for e in p.events if e.kind == "note"
                                     and not e.grace and e.tie in ("none", "start"))
                start += size
            assert totals == whole
        assert time.perf_counter() - start_time < 1.0


def test_criterion_2_cache_speedup(corpus_runs):
    with criterion(2, "cache speedup"):
        uncached_s = corpus_runs["uncached_s"]
        cached_s = corpus_runs["cached_s"]
        assert corpus_runs["uncached_report"].parsed == 200
        assert corpus_runs["cached_report"].parsed == 0
        assert corpus_runs["cached_report"].cache_hits == 200
        speedup = uncached_s / cached_s
        print(f"\n  uncached {uncached_s:.2f}s, cached {cached_s:.2f}s, "
              f"speedup {speedup:.2f}x")
        assert speedup >= 1.5
        assert uncached_s + cached_s < 120


def test_criterion_3_feature_count_scaling(tmp_path):
    with criterion(3, "feature-count scaling"):
        steps = "CDEFGABC"
        mono_measures = [
            [{"step": steps[i % 8], "octave": 4, "dur": 4,
              "lyric": ("la", "single")} for i in range(4)]
            for _ in range(16)
        ]
        mono_measures[0][0]["dynamic"] = "p"
        mono = tmp_path / "mono.musicxml"
        mono.write_bytes(musicxml_doc([("Soprano", mono_measures)],
                                      tempo_words="Andante", tempo_bpm=80))

        rng = random.Random(3)
        names = ["Violin I", "Violin II", "Viola", "Cello", "Double Bass",
                 "Flute 1", "Flute 2", "Oboe 1", "Oboe 2", "Clarinet 1",
                 "Clarinet 2", "Bassoon 1", "Bassoon 2", "Horn 1", "Horn 2",
                 "Trumpet 1", "Trumpet 2", "Timpani", "Soprano", "Bass"]
        parts = []
        for name in names:
            measures = []
            for _ in range(16):
                left, events = 16, []
                while left > 0:
                    dur = rng.choice([u for u in (2, 4, 8) if u <= left] or [left])
                    ev = {"step": rng.choice("CDEFGAB"),
                          "alter": rng.choice([-1, 0, 0, 1]),
                          "octave": rng.randint(2, 6), "dur": dur}
                    if name in ("Soprano", "Bass") and rng.random() < 0.5:
                        ev["lyric"] = ("la", "single")
                    if rng.random() < 0.05:
                        ev["dynamic"] = rng.choice(["p", "mf", "f"])
                    events.append(ev)
                    left -= dur
                measures.append(events)
            parts.append((name, measures))
        orch = tmp_path / "orch.musicxml"
        orch.write_bytes(musicxml_doc(parts, tempo_words="Allegro", tempo_bpm=120))

        mono_cols = len(extract(ExtractorConfig(), [mono]).columns)
        orch_cols = len(extract(ExtractorConfig(), [orch]).columns)
        print(f"\n  monophonic {mono_cols} columns, orchestral {orch_cols} columns "
              f"({orch_cols / mono_cols:.1f}x)")
        assert mono_cols >= 100
        assert orch_cols >= 10 * mono_cols


def test_criterion_4_key_estimation():
    with criterion(4, "Krumhansl-Schmuckler key estimation"):
        spelling = {0: ("C", 0), 1: ("C", 1), 2: ("D", 0), 3: ("D", 1), 4: ("E", 0),
                    5: ("F", 0), 6: ("F", 1), 7: ("G", 0), 8: ("G", 1), 9: ("A", 0),
                    10: ("A", 1), 11: ("B", 0)}

        def brute_force(weights):
            best = None
            for rank, (mode, ref) in enumerate((("major", KRUMHANSL_MAJOR),
                                                ("minor", KRUMHANSL_MINOR))):
                for tonic in range(12):
                    rotated = [ref[(pc - tonic) % 12] for pc in range(12)]
                    r = correlation(list(weights), rotated)
                    key = (-r, rank, tonic)
                    if best is None or key < best[0]:
                        best = (key, tonic, mode)
            return best[1], best[2]

        matches = 0
        for mode, pcs in (("major", (0, 2, 4, 5, 7, 9, 11)),
                          ("minor", (0, 2, 3, 5, 7, 8, 11))):
            for tonic in range(12):
                events = []
                for i, pc in enumerate(pcs):
                    step, alter = spelling[(pc + tonic) % 12]
                    events.append(note(step, 4, alter, onset=i, dur=1,
                                       measure=i // 4 + 1))
                fixture = score([part(events, measures=2)], measures=2)
                profile = profile_from_score(fixture)
                est = estimate_key_ks(profile)
                oracle = brute_force(profile.weights)
                assert (est.tonic, est.mode) == oracle
                key_row = key_features(fixture)
                assert key_row["KeyMode"] == mode
                if (est.tonic, est.mode) == (tonic, mode):
                    matches += 1
        assert matches == 24


def test_criterion_5_postprocessing(tmp_path):
    with criterion(5, "post-processing contract"):
        vocal = musicxml_doc([("Soprano", [[{"step": "C", "octave": 5, "dur": 16,
                                             "lyric": ("la", "single")}]])])
        plain = musicxml_doc([("Violin", [[{"step": "G", "octave": 4, "dur": 16}]])],
                             tempo_words="Largo")
        (tmp_path / "a.musicxml").write_bytes(vocal)
        (tmp_path / "b.musicxml").write_bytes(plain)
        table = extract(ExtractorConfig(),
                        [tmp_path / "a.musicxml", tmp_path / "b.musicxml"])
        assert any(cell is None for cells in table.columns.values() for cell in cells)

        cleaned = process(table, ProcessorConfig(replace_missing_with_zero=[".*"]))
        assert sum(cell is None for cells in cleaned.columns.values() for cell in cells) == 0

        stats = merge_statistics([8, 4], ["mean", "std"])
        assert stats["mean"] == 6.0 and stats["std"] == 2.0

        merged = process(
            FeatureTable({"PartViolinI_NumNotes": [8], "PartViolinII_NumNotes": [4]}, 1),
            ProcessorConfig(merge_groups=[MergeGroup(pattern=r"PartViolin.*_NumNotes",
                                                     target="SoundViolin_NumNotes",
                                                     stats=("mean", "std"))]),
        )
        assert merged.columns["SoundViolin_NumNotes_Mean"] == [6.0]
        assert merged.columns["SoundViolin_NumNotes_Std"] == [2.0]


def test_criterion_6_determinism(corpus_runs):
    with criterion(6, "determinism"):
        assert corpus_runs["cached_csv"] == corpus_runs["cached_again_csv"]
        assert corpus_runs["uncached_csv"] == corpus_runs["cached_csv"]


def test_criterion_7_oracle_equivalence():
    with criterion(7, "oracle equivalence"):
        start = time.perf_counter()
        rng = random.Random(424242)
        from scorefeat.engine import extract_unit
        from scorefeat.harmony import attach_annotations, parse_harmony_file
        from scorefeat.registry import feature_modules, resolve_feature_order

        registry = feature_modules()
        order = resolve_feature_order(registry, ExtractorConfig().requested_modules())

        for trial in range(100):
            s = random_model_score(rng)
            if trial % 3 == 0:
                rows = "".join(
                    f"{m}\t0\t{rng.choice(['I', 'ii', 'V7', 'IV', 'vi', 'viio'])}"
                    f"\t{rng.choice(['C', 'a', 'G'])}\n"
                    for m in range(1, s.num_measures + 1)
                )
                s = attach_annotations(
                    s, parse_harmony_file("measure\tbeat\tlabel\tkey\n" + rows)
                )
            row = extract_unit(s, order, registry)
            _check_against_oracle(s, row)
        assert time.perf_counter() - start < 30


def _counted(events):
    return [e for e in events if e.kind == "note" and not e.grace
            and e.tie in ("none", "start")]


def _check_against_oracle(s, row):
    approx = lambda x: pytest.approx(x, rel=1e-9, abs=1e-12)  # noqa: E731

    counts = {}
    for p in s.parts:
        counted = _counted(p.events)
        counts[p.part_id] = len(counted)
        assert row[f"Part{p.part_id}_NumNotes"] == len(counted)
        assert row[f"Part{p.part_id}_SoundingMeasures"] == len(
            {e.measure_index for e in counted}
        )

        # melodic top line and interval directions
        by_onset = {}
        for e in counted:
            midi = 12 * (e.pitch.octave + 1) + \
                {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}[e.pitch.step] \
                + e.pitch.alter
            if e.onset not in by_onset or midi > by_onset[e.onset]:
                by_onset[e.onset] = midi
        line = [by_onset[k] for k in sorted(by_onset)]
        deltas = [b - a for a, b in zip(line, line[1:])]
        key = f"Part{p.part_id}_AscendingFrac"
        if len(deltas) == 0 or p.family == "percussion":
            assert key not in row
        else:
            assert row[key] == approx(sum(1 for d in deltas if d > 0) / len(deltas))
            assert row[f"Part{p.part_id}_DescendingFrac"] == approx(
                sum(1 for d in deltas if d < 0) / len(deltas)
            )

        # duration histogram over tie-merged chains (independent chain fold)
        chains = []
        open_heads = {}
        for e in p.events:
            if e.kind != "note" or e.grace:
                continue
            midi = 12 * (e.pitch.octave + 1) + \
                {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}[e.pitch.step] \
                + e.pitch.alter
            if e.tie in ("none", "start"):
                chains.append(e)
                if e.tie == "start":
                    open_heads[midi] = e
            elif midi in open_heads and e.tie == "stop":
                del open_heads[midi]
        if chains:
            quarter = sum(1 for e in chains
                          if _nominal_class(quarters(s, e.duration), e.dots) == "quarter")
            assert row[f"Part{p.part_id}_Duration_quarter_Frac"] == approx(
                quarter / len(chains)
            )

    for i, a in enumerate(s.parts):
        for b in s.parts[i + 1:]:
            name = f"Texture_{a.part_id}_{b.part_id}_Ratio"
            if counts[b.part_id] == 0:
                assert name not in row
            else:
                assert row[name] == approx(counts[a.part_id] / counts[b.part_id])

    if s.annotations is not None:
        assert row["Score_NumAnnotations"] == len(s.annotations)
        functions = {"T": 0, "D": 0, "S": 0, "other": 0}
        table = {"I": "T", "i": "T", "VI": "T", "vi": "T", "V": "D", "v": "D",
                 "vii": "D", "IV": "S", "iv": "S", "II": "S", "ii": "S"}
        for a in s.annotations:
            if a.applied_of:
                functions["D"] += 1
            elif a.degree == "VII":
                functions["D" if a.quality in ("dim", "dim7", "halfdim7") else "other"] += 1
            else:
                functions[table.get(a.degree.lstrip("b#"), "other")] += 1
        assert row["Score_Function_T_Count"] == functions["T"]
        assert row["Score_Function_D_Count"] == functions["D"]
        assert row["Score_Function_S_Count"] == functions["S"]
        changes = sum(
            1 for prev, cur in zip(s.annotations, s.annotations[1:])
            if cur.local_key != prev.local_key
        )
        assert row["Score_NumModulations"] == changes


def _nominal_class(duration, dots):
    from fractions import Fraction

    dot_factor = {0: Fraction(1), 1: Fraction(3, 2), 2: Fraction(7, 4)}[dots]
    nominal = duration / dot_factor
    table = {Fraction(4): "whole", Fraction(2): "half", Fraction(1): "quarter",
             Fraction(1, 2): "eighth", Fraction(1, 4): "sixteenth"}
    if nominal in table:
        return table[nominal]
    scaled = nominal * Fraction(3, 2)
    if scaled in table:
        return table[scaled]
    return "other"


def test_criterion_8_parser_round_trip():
    with criterion(8, "parser round-trip"):
        rng = random.Random(88)
        for trial in range(100):
            doc, expected = random_musicxml(rng)
            parsed, diags = parse_musicxml(doc)
            assert not diags.warnings
            assert len(parsed.parts) == len(expected)
            for p, inventory in zip(parsed.parts, expected):
                got = [
                    (12 * (e.pitch.octave + 1)
                     + {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}[e.pitch.step]
                     + e.pitch.alter,
                     quarters(parsed, e.duration))
                    for e in _counted(p.events)
                ]
                assert got == inventory
            if trial % 5 == 0:
                zipped, _ = parse_musicxml(mxl_bytes(doc))
                assert zipped == parsed
