"""scorefeat: musicological feature extraction from symbolic music scores.

Parse MusicXML or MIDI (plus optional Roman-numeral harmony sidecars),
extract a large configurable feature set per score or per measure window,
and post-process the result into a clean tabular feature matrix.
"""

from . import features  # noqa: F401  (registers the stock feature modules)
from .engine import (
    ConfigError,
    ExtractorConfig,
    RunReport,
    extract,
    load_or_parse,
    plan_windows,
    run_hooks,
)
from .harmony import (
    HarmonicAnnotation,
    HarmonyError,
    attach_annotations,
    classify_function,
    parse_harmony_file,
    parse_rn_label,
    serialize_harmony,
)
from .midi import MidiError, import_midi
from .model import (
    Lyric,
    NoteEvent,
    Part,
    Score,
    SpelledPitch,
    TempoMark,
    midi_number,
    note_count,
    slice_window,
    sounding_measures,
)
from .musicxml import MusicXMLError, ParseDiagnostics, parse_musicxml
from .postprocess import MergeGroup, ProcessorConfig, merge_statistics, process
from .registry import (
    FeatureModuleDescriptor,
    RegistryError,
    register_feature_module,
    register_hook,
    resolve_feature_order,
)
from .table import FeatureTable

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExtractorConfig",
    "FeatureModuleDescriptor",
    "FeatureTable",
    "HarmonicAnnotation",
    "HarmonyError",
    "Lyric",
    "MergeGroup",
    "MidiError",
    "MusicXMLError",
    "NoteEvent",
    "ParseDiagnostics",
    "Part",
    "ProcessorConfig",
    "RegistryError",
    "RunReport",
    "Score",
    "SpelledPitch",
    "TempoMark",
    "attach_annotations",
    "classify_function",
    "extract",
    "features",
    "import_midi",
    "load_or_parse",
    "merge_statistics",
    "midi_number",
    "note_count",
    "parse_harmony_file",
    "parse_musicxml",
    "parse_rn_label",
    "plan_windows",
    "process",
    "register_feature_module",
    "register_hook",
    "resolve_feature_order",
    "run_hooks",
    "serialize_harmony",
    "slice_window",
    "sounding_measures",
]
