import pytest

from scorefeat.instruments import (
    OrdinalAllocator,
    camel_case,
    detect_instrument_family,
    int_to_roman,
    part_identifier,
    split_instrument_ordinal,
)


@pytest.mark.parametrize(
    "name,sound,family",
    [
        ("Violin II", "violin", "strings"),
        ("Oboe", "oboe", "woodwinds"),
        ("Glass Harmonica", "glass harmonica", "other"),
        ("Violino I", "violin", "strings"),
        ("Flauto 2", "flute", "woodwinds"),
        ("Corno I", "horn", "brass"),
        ("French Horn", "horn", "brass"),
        ("Clarinet in A", "clarinet", "woodwinds"),
        ("Soprano", "soprano", "voices"),
        ("Basso", "bass", "voices"),
        ("Contrabbasso", "double bass", "strings"),
        ("Timpani", "timpani", "percussion"),
        ("Cembalo", "harpsichord", "keyboard"),
        ("Arpa", "harp", "plucked"),
        ("Violins", "violin", "strings"),
        ("", "part", "other"),
        ("Bass-Clarinet", "bass clarinet", "woodwinds"),
        ("English-Horn", "english horn", "woodwinds"),
        ("Double-Bass", "double bass", "strings"),
        ("Mezzo-Soprano", "mezzo-soprano", "voices"),
        ("Oboe-d-amore", "oboe d'amore", "woodwinds"),
        ("-Flute-", "flute", "woodwinds"),
    ],
)
def test_detect_instrument_family(name, sound, family):
    assert detect_instrument_family(name) == (sound, family)


@pytest.mark.parametrize(
    "name,base,ordinal",
    [
        ("Violin I", "Violin", 1),
        ("Violin II", "Violin", 2),
        ("Violin 2", "Violin", 2),
        ("Oboe 1st", "Oboe", 1),
        ("Viola", "Viola", None),
        ("Timpani", "Timpani", None),
        ("Tromba III", "Tromba", 3),
    ],
)
def test_split_ordinal(name, base, ordinal):
    assert split_instrument_ordinal(name) == (base, ordinal)


def test_camel_case():
    assert camel_case("french horn") == "FrenchHorn"
    assert camel_case("violin") == "Violin"
    assert camel_case("oboe d'amore") == "OboeDAmore"


def test_roman_numerals():
    assert [int_to_roman(n) for n in (1, 2, 3, 4, 9, 14)] == ["I", "II", "III", "IV", "IX", "XIV"]
    with pytest.raises(ValueError):
        int_to_roman(0)


def test_part_identifier():
    assert part_identifier("violin", 2) == "ViolinII"
    assert part_identifier("double bass", 1) == "DoubleBassI"


def test_ordinals_count_per_identifier_stem():
    ordinals = OrdinalAllocator()
    assigned = [ordinals.assign(sound, explicit) for sound, explicit in
                [("bass clarinet", None), ("bass-clarinet", None), ("violin", 2),
                 ("Violin", 2), ("violin", None)]]
    assert assigned == [1, 2, 2, 3, 4]
