"""Instrument name normalization: sound names, families, part ordinals."""

from __future__ import annotations

import re
from typing import Optional

# Localized / historical spellings folded onto one canonical sound name.
SOUND_SYNONYMS = {
    "violino": "violin",
    "violine": "violin",
    "violons": "violin",
    "violon": "violin",
    "geige": "violin",
    "vl": "violin",
    "vln": "violin",
    "viole": "viola",
    "bratsche": "viola",
    "vla": "viola",
    "violoncello": "cello",
    "violoncelle": "cello",
    "vc": "cello",
    "contrabbasso": "double bass",
    "contrabass": "double bass",
    "contrebasse": "double bass",
    "kontrabass": "double bass",
    "string bass": "double bass",
    "violone": "double bass",
    "cb": "double bass",
    "flauto": "flute",
    "flöte": "flute",
    "flute traversiere": "flute",
    "traverso": "flute",
    "fl": "flute",
    "flauto piccolo": "piccolo",
    "ottavino": "piccolo",
    "hautbois": "oboe",
    "ob": "oboe",
    "oboe d amore": "oboe d'amore",
    "corno inglese": "english horn",
    "cor anglais": "english horn",
    "clarinetto": "clarinet",
    "klarinette": "clarinet",
    "cl": "clarinet",
    "fagotto": "bassoon",
    "fagott": "bassoon",
    "basson": "bassoon",
    "fg": "bassoon",
    "bn": "bassoon",
    "flauto dolce": "recorder",
    "blockflöte": "recorder",
    "corno": "horn",
    "french horn": "horn",
    "cor": "horn",
    "hn": "horn",
    "tromba": "trumpet",
    "trompete": "trumpet",
    "trompette": "trumpet",
    "clarino": "trumpet",
    "tpt": "trumpet",
    "trombone basso": "trombone",
    "posaune": "trombone",
    "tbn": "trombone",
    "pauken": "timpani",
    "timbales": "timpani",
    "timp": "timpani",
    "gran cassa": "bass drum",
    "tamburo": "snare drum",
    "piatti": "cymbals",
    "pianoforte": "piano",
    "fortepiano": "piano",
    "pf": "piano",
    "cembalo": "harpsichord",
    "clavecin": "harpsichord",
    "clavicembalo": "harpsichord",
    "organo": "organ",
    "orgel": "organ",
    "arpa": "harp",
    "harfe": "harp",
    "liuto": "lute",
    "laute": "lute",
    "chitarra": "guitar",
    "gitarre": "guitar",
    "tiorba": "theorbo",
    "mandolino": "mandolin",
    "canto": "voice",
    "voce": "voice",
    "vocal": "voice",
    "singstimme": "voice",
    "sopran": "soprano",
    "s": "soprano",
    "mezzosoprano": "mezzo-soprano",
    "mezzo soprano": "mezzo-soprano",
    "mezzo": "mezzo-soprano",
    "contralto": "alto",
    "altus": "alto",
    "a": "alto",
    "tenore": "tenor",
    "t": "tenor",
    "basso": "bass",
    "b": "bass",
    "bariton": "baritone",
    "baritono": "baritone",
    "coro": "choir",
    "chorus": "choir",
    "chor": "choir",
}

SOUND_FAMILY = {
    "violin": "strings",
    "viola": "strings",
    "cello": "strings",
    "double bass": "strings",
    "viola da gamba": "strings",
    "viol": "strings",
    "flute": "woodwinds",
    "piccolo": "woodwinds",
    "oboe": "woodwinds",
    "oboe d'amore": "woodwinds",
    "english horn": "woodwinds",
    "clarinet": "woodwinds",
    "bass clarinet": "woodwinds",
    "bassoon": "woodwinds",
    "contrabassoon": "woodwinds",
    "recorder": "woodwinds",
    "saxophone": "woodwinds",
    "bagpipe": "woodwinds",
    "horn": "brass",
    "trumpet": "brass",
    "trombone": "brass",
    "tuba": "brass",
    "cornet": "brass",
    "euphonium": "brass",
    "soprano": "voices",
    "mezzo-soprano": "voices",
    "alto": "voices",
    "tenor": "voices",
    "baritone": "voices",
    "bass": "voices",
    "voice": "voices",
    "choir": "voices",
    "timpani": "percussion",
    "bass drum": "percussion",
    "snare drum": "percussion",
    "drum": "percussion",
    "drums": "percussion",
    "percussion": "percussion",
    "cymbals": "percussion",
    "triangle": "percussion",
    "tambourine": "percussion",
    "glockenspiel": "percussion",
    "xylophone": "percussion",
    "piano": "keyboard",
    "harpsichord": "keyboard",
    "organ": "keyboard",
    "celesta": "keyboard",
    "clavichord": "keyboard",
    "keyboard": "keyboard",
    "harp": "plucked",
    "lute": "plucked",
    "theorbo": "plucked",
    "guitar": "plucked",
    "mandolin": "plucked",
    "banjo": "plucked",
    "strings": "strings",     # ensemble programs in MIDI imports
    "brass": "brass",
    "synthesizer": "other",
}

_ROMAN_ORDINALS = {"i": 1, "ii": 2, "iii": 3, "iv": 4, "v": 5, "vi": 6, "vii": 7, "viii": 8}
_ORDINAL_RE = re.compile(
    r"[\s.,-]+(?:(?P<roman>i{1,3}|iv|v|vi{1,3}|viii)|(?P<arabic>\d{1,2})(?:st|nd|rd|th|º|°|\.)?)\s*$",
    re.IGNORECASE,
)


def split_instrument_ordinal(name: str) -> tuple[str, Optional[int]]:
    """Split a trailing part ordinal off an instrument name.

    "Violin II" -> ("Violin", 2); "Oboe 1" -> ("Oboe", 1); "Viola" -> ("Viola", None).
    """
    m = _ORDINAL_RE.search(name)
    if m and m.start() > 0:
        base = name[: m.start()].strip()
        if base:
            if m.group("roman"):
                return base, _ROMAN_ORDINALS[m.group("roman").lower()]
            return base, int(m.group("arabic"))
    return name.strip(), None


def _normalize(name: str) -> str:
    n = name.lower().strip()
    n = re.sub(r"[-_/()\[\]]+", " ", n)
    n = re.sub(r"[’`´]", "'", n)
    n = re.sub(r"\s+in\s+[a-g](?:\s*(?:flat|sharp|b|#))?$", "", n)  # "clarinet in a"
    n = re.sub(r"\s+", " ", n).strip(" .,-")
    return n


def detect_instrument_family(instrument_name: str) -> tuple[str, str]:
    """Normalize an instrument name to (sound, family).

    Ordinals and common localizations are stripped ("Violino I" -> violin);
    unknown names fall back to (normalized name, "other"). Total function.
    """
    base, _ = split_instrument_ordinal(instrument_name or "")
    n = _normalize(base)
    if not n:
        return "part", "other"
    sound = SOUND_SYNONYMS.get(n, n)
    if sound not in SOUND_FAMILY and sound.endswith("s") and sound[:-1] in SOUND_FAMILY:
        sound = sound[:-1]  # plural part names: "Violins"
    family = SOUND_FAMILY.get(sound, "other")
    return sound, family


def int_to_roman(n: int) -> str:
    if n < 1:
        raise ValueError("roman numerals start at 1")
    out = []
    for value, sym in ((1000, "M"), (900, "CM"), (500, "D"), (400, "CD"),
                       (100, "C"), (90, "XC"), (50, "L"), (40, "XL"),
                       (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I")):
        while n >= value:
            out.append(sym)
            n -= value
    return "".join(out)


def camel_case(name: str) -> str:
    """"french horn" -> "FrenchHorn"; used for feature-column name segments."""
    words = re.split(r"[^0-9a-zA-Z]+", name)
    return "".join(w.capitalize() for w in words if w)


def part_identifier(sound: str, ordinal: int) -> str:
    """Column-name segment for one part: CamelCase sound + Roman ordinal."""
    return f"{camel_case(sound)}{int_to_roman(ordinal)}"


class OrdinalAllocator:
    """Keeps part identifiers unique within one score by numbering parts per
    identifier stem (``camel_case(sound)``), so "bass clarinet" and
    "bass-clarinet" share one series: explicit ordinals win, duplicates and
    unnumbered parts get the next free slot in score order."""

    def __init__(self):
        self._used: dict[str, set[int]] = {}
        self._next: dict[str, int] = {}

    def assign(self, sound: str, explicit: Optional[int]) -> int:
        stem = camel_case(sound)
        taken = self._used.setdefault(stem, set())
        ordinal = explicit
        if ordinal is None or ordinal in taken:
            ordinal = self._next.get(stem, 1)
            while ordinal in taken:
                ordinal += 1
        taken.add(ordinal)
        self._next[stem] = ordinal + 1
        return ordinal
