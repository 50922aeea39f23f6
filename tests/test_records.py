"""Every data class of the package is a ``record``, and the methods that
``record`` shares give what ``dataclasses.dataclass`` would generate."""

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorefeat
from scorefeat.cli import RunConfig
from scorefeat.engine import ExtractorConfig, RunReport
from scorefeat.features.pitch import KeyEstimate, PitchClassProfile
from scorefeat.harmony import HarmonicAnnotation, ParsedLabel
from scorefeat.model import Lyric, SpelledPitch, TempoMark
from scorefeat.postprocess import MergeGroup
from scorefeat.records import record
from util import note, part, score


def _package_dataclasses() -> list[type]:
    found = []
    for info in pkgutil.walk_packages(scorefeat.__path__, "scorefeat."):
        module = importlib.import_module(info.name)
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__]
    return found


CLASSES = _package_dataclasses()


def _frozen(cls) -> bool:
    return cls.__dataclass_params__.frozen


def _stdlib_twin(cls) -> type:
    """A ``dataclass`` with ``cls``'s field names and flags, frozenness and
    qualified name, whose methods the stdlib generates."""
    twin = dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, object, dataclasses.field(compare=f.compare, hash=f.hash, repr=f.repr))
         for f in dataclasses.fields(cls)],
        frozen=_frozen(cls))
    twin.__qualname__ = cls.__qualname__
    return twin


TWINS = {cls: _stdlib_twin(cls) for cls in CLASSES}


def _bare(cls, values):
    """An instance holding ``values`` as its fields, with no ``__post_init__``
    check run."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip((f.name for f in dataclasses.fields(cls)), values))
    return obj


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


# NaN is left out: since Python 3.13 the generated __eq__ compares field by
# field, where a tuple compares a NaN that is one object as equal to itself.
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(allow_nan=False, width=16), st.text("ab", max_size=2),
                     st.fractions(max_denominator=3))
_VALUES = st.one_of(_SCALARS, st.tuples(_SCALARS, _SCALARS), st.lists(_SCALARS, max_size=2))


def _ids(cls) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def test_the_walk_finds_every_data_class():
    names = {cls.__qualname__ for cls in CLASSES}
    assert {"Score", "Part", "NoteEvent", "PitchClassProfile", "RunReport", "RunConfig",
            "_RawPart", "_TrackData"} <= names
    assert len(CLASSES) >= 22


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_every_data_class_is_a_record(cls):
    @record(frozen=_frozen(cls))
    class Probe:
        x: int

    assert cls.__eq__ is Probe.__eq__
    assert cls.__repr__ is Probe.__repr__
    assert cls.__hash__ is Probe.__hash__
    assert (cls.__hash__ is None) is not _frozen(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
@settings(max_examples=50)
@given(data=st.data())
def test_shared_methods_match_the_generated_ones(cls, data):
    twin, n = TWINS[cls], len(dataclasses.fields(cls))
    values = data.draw(st.lists(_VALUES, min_size=n, max_size=n))
    others = [v if data.draw(st.booleans()) else data.draw(_VALUES) for v in values]
    a, b = _bare(cls, values), _bare(cls, others)
    twin_a, twin_b = _bare(twin, values), _bare(twin, others)

    assert repr(a) == repr(twin_a)
    assert repr(b) == repr(twin_b)
    assert (a == b) is (twin_a == twin_b)
    assert (a != b) is (twin_a != twin_b)
    assert a == _bare(cls, values)
    assert _hash_or_error(a) == _hash_or_error(twin_a)
    assert _hash_or_error(b) == _hash_or_error(twin_b)
    # only an instance of the very same class compares
    assert a.__eq__(twin_a) is NotImplemented
    assert a != twin_a
    assert not a == object()


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_repr_of_an_instance_inside_itself_reads_dots(cls):
    twin, n = TWINS[cls], len(dataclasses.fields(cls))
    texts = []
    for kind in (cls, twin):
        box = []
        obj = _bare(kind, [box] + [0] * (n - 1))
        box.append(obj)
        texts.append(repr(obj))
    assert texts[0] == texts[1]
    assert "[...]" in texts[0]


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if _frozen(cls)], ids=_ids)
def test_frozen_records_refuse_assignment(cls):
    obj = _bare(cls, [0] * len(dataclasses.fields(cls)))
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_match_args_are_the_stdlib_ones(cls):
    assert cls.__match_args__ == TWINS[cls].__match_args__


FLAT = [
    SpelledPitch("F", 1, 5),
    Lyric("la", "begin"),
    TempoMark(3, "Allegro", 120.0),
    PitchClassProfile((1,) * 12),
    KeyEstimate(7, "major", 0.75, 0.25),
    ParsedLabel("V", "dom7", 1, None),
    HarmonicAnnotation(2, Fraction(3, 2), "V7/IV", "C", "V", "dom7", 0, "IV", False),
    MergeGroup("Part.*", "All", ("mean", "max")),
    ExtractorConfig(xml_dir=Path("scores"), window_size=4),
    RunReport(parsed=3),
]


@pytest.mark.parametrize("obj", FLAT, ids=lambda obj: type(obj).__qualname__)
def test_replace_fields_and_asdict_round_trip(obj):
    assert dataclasses.replace(obj) == obj
    assert type(obj)(**dataclasses.asdict(obj)) == obj
    assert list(dataclasses.asdict(obj)) == [f.name for f in dataclasses.fields(obj)]
    assert dataclasses.astuple(obj) == tuple(getattr(obj, f.name)
                                             for f in dataclasses.fields(obj))
    assert repr(obj).startswith(f"{type(obj).__qualname__}(")


def test_nested_records_compare_and_hash_by_value():
    def build():
        return score([part([note("C", onset=0, dur=4), note("E", onset=4, dur=4, measure=2)])])

    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert dataclasses.replace(a, source_id="other") != a
    assert {a: 1}[b] == 1
    assert RunConfig() == RunConfig()
    assert RunConfig().__hash__ is None
