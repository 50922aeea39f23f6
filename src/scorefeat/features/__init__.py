"""Stock feature modules and their registry wiring.

Each module pairs an optional per-part extractor with an optional per-score
one. The engine prefixes part values with their part's scope prefix. A
score value keeps its name when it already starts with a scope prefix (see
``Score.scopes`` and ``core.SCOPED_NAME``), which is how the ambitus, melody
and density families emit part, sound and family cells from one score pass,
each cell merged from one summary per part; any other score value gets
``Score_``.
"""

from __future__ import annotations

from ..harmony import key_mode, key_tonic_pc
from ..model import Part, Score
from ..registry import FeatureModuleDescriptor, register_feature_module
from .core import (
    core_part,
    core_score,
    dynamics_features,
    lyrics_features,
    scoring_features,
    tempo_features,
)
from .harmony import harmony_features
from .pitch import (
    ambitus_features,
    estimate_key_ks,
    key_features,
    melody_features,
    scale_degree_features,
)
from .time import density_features, rhythm_features, texture_features

# The melody module also answers to this name in configs.
FEATURE_ALIASES = {"interval": "melody"}


def _scale_part(part: Part, score: Score, upstream) -> dict:
    key_name = upstream.get("Key")
    global_key = None
    if key_name:
        tonic = key_tonic_pc(key_name)
        mode = upstream.get("KeyMode") or key_mode(key_name)
        if tonic is not None and mode in ("major", "minor"):
            global_key = (tonic, mode)
    return scale_degree_features(part, score, global_key)


_STOCK_MODULES = (
    FeatureModuleDescriptor("core", part_fn=core_part, score_fn=core_score),
    FeatureModuleDescriptor("scoring", score_fn=lambda score, pv, up: scoring_features(score)),
    FeatureModuleDescriptor("key", score_fn=lambda score, pv, up: key_features(score)),
    FeatureModuleDescriptor("tempo", score_fn=lambda score, pv, up: tempo_features(score)),
    FeatureModuleDescriptor(
        "density", depends_on=("core",),
        score_fn=lambda score, pv, up: density_features(score),
    ),
    FeatureModuleDescriptor("harmony", score_fn=lambda score, pv, up: harmony_features(score)),
    FeatureModuleDescriptor(
        "rhythm",
        part_fn=lambda part, score, up: rhythm_features(part, score.ticks_per_quarter),
    ),
    FeatureModuleDescriptor("scale", depends_on=("key",), part_fn=_scale_part),
    FeatureModuleDescriptor("dynamics", part_fn=lambda part, score, up: dynamics_features(part)),
    FeatureModuleDescriptor("ambitus", score_fn=lambda score, pv, up: ambitus_features(score)),
    FeatureModuleDescriptor("melody", score_fn=lambda score, pv, up: melody_features(score)),
    FeatureModuleDescriptor("lyrics", part_fn=lambda part, score, up: lyrics_features(part)),
    FeatureModuleDescriptor("texture", score_fn=lambda score, pv, up: texture_features(score)),
)
STOCK_FEATURES = tuple(module.name for module in _STOCK_MODULES)
for _module in _STOCK_MODULES:
    register_feature_module(_module)

__all__ = [
    "STOCK_FEATURES",
    "FEATURE_ALIASES",
    "core_part",
    "core_score",
    "scoring_features",
    "tempo_features",
    "dynamics_features",
    "lyrics_features",
    "key_features",
    "estimate_key_ks",
    "ambitus_features",
    "melody_features",
    "scale_degree_features",
    "density_features",
    "rhythm_features",
    "texture_features",
    "harmony_features",
]
