"""Lexicon-based word-category text features.

Each category score is the percentage of tokens that match any of the
category's entries, the classic word-count featurization. The bundled demo
lexicon is format-compatible with the full 92-category dictionary, which is
a drop-in replacement file.
"""

from __future__ import annotations

import hashlib
import math
import re
import struct
from dataclasses import dataclass, field
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import Optional

from .errors import RangeError, SchemaError, SurrogateUnavailable, utf8_input

# Tokens are runs of letters/digits, with internal apostrophes kept ("don't").
_TOKEN = re.compile(r"[^\W_]+(?:'[^\W_]+)*", re.UNICODE)

#: Scale of the logistic map in the confidence-tone surrogate score.
CLOUT_SCALE = 2.0

#: Width of one counter in extract's packed word counts; ``struct`` format "I".
_FIELD_BITS = 32
#: Longest text extract counts, in characters after lowercasing. A token is at
#: least one character and counts at most once in each category, so no count
#: exceeds the text's length and no field of a packed sum carries into the next.
_MAX_CHARS = (1 << _FIELD_BITS) - 1


@dataclass
class LexiconEntry:
    pattern: str
    wildcard: bool
    categories: frozenset


@dataclass
class Lexicon:
    categories: list
    entries: list
    #: First 16 hex digits of the sha256 of the file the lexicon was read from.
    fingerprint: str = ""
    _exact: dict = field(default_factory=dict, repr=False)
    # (k, {prefix of length k: categories}) for each wildcard length k, ascending
    _prefixes: list = field(default_factory=list, repr=False)
    # extract's per-word cache: whitespace-free word -> its packed counts, field 0
    # (the lowest _FIELD_BITS bits) its token count and field c + 1 its hits in category c
    _packed: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        by_length: dict = {}
        for entry in self.entries:
            table = by_length.setdefault(len(entry.pattern), {}) if entry.wildcard else self._exact
            table[entry.pattern] = table.get(entry.pattern, frozenset()) | entry.categories
        self._prefixes = sorted(by_length.items())

    def category_index(self, name: str) -> Optional[int]:
        try:
            return self.categories.index(name)
        except ValueError:
            return None

    def match(self, token: str) -> frozenset:
        """Category indices the token counts toward."""
        cats = self._exact.get(token, frozenset())
        for k, table in self._prefixes:
            idxs = table.get(token[:k])
            if idxs is not None:
                cats = cats | idxs
        return cats

    def _pack(self, word: str) -> int:
        """The packed counts of one whitespace-free word, tokenized and matched once."""
        packed = self._packed.get(word)
        if packed is None:
            tokens = _TOKEN.findall(word)
            packed = len(tokens)
            for token in tokens:
                for ci in self.match(token):
                    packed += 1 << (_FIELD_BITS * (ci + 1))
            self._packed[word] = packed
        return packed


def load_lexicon(path=None) -> Lexicon:
    """Parse a %-delimited dictionary file.

    Header block: ``index<TAB>name`` lines between two ``%`` lines, then
    ``word[*]<TAB>index[,index...]`` entry lines. Category indices in the
    Lexicon follow file order of the header.
    """
    if path is None:
        blob = resources.files("fundlens.data").joinpath("demo_lexicon.dic").read_bytes()
    else:
        blob = Path(path).read_bytes()
    with utf8_input(path):
        lines = blob.decode("utf-8").splitlines()
    delims = [i for i, ln in enumerate(lines) if ln.strip() == "%"]
    if len(delims) < 2:
        raise SchemaError("lexicon file lacks a %-delimited header block")
    header = lines[delims[0] + 1 : delims[1]]
    body = lines[delims[1] + 1 :]

    file_index_to_pos: dict = {}
    categories: list = []
    for ln in header:
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split("\t")
        if len(parts) != 2:
            raise SchemaError(f"bad lexicon header line: {ln!r}")
        idx, name = parts[0].strip(), parts[1].strip()
        if name in categories:
            raise SchemaError(f"duplicate category name: {name!r}")
        file_index_to_pos[idx] = len(categories)
        categories.append(name)

    entries: list = []
    for ln in body:
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split("\t", 1)
        if len(parts) != 2:
            raise SchemaError(f"bad lexicon entry line: {ln!r}")
        word = parts[0].strip().lower()
        if not word.rstrip("*"):
            raise SchemaError(f"empty lexicon pattern: {ln!r}")
        refs = [tok for tok in re.split(r"[,\t\s]+", parts[1].strip()) if tok]
        cats = set()
        for ref in refs:
            if ref not in file_index_to_pos:
                raise SchemaError(f"entry {word!r} references unknown category {ref!r}")
            cats.add(file_index_to_pos[ref])
        if not cats:
            raise SchemaError(f"entry {word!r} references no category")
        wildcard = word.endswith("*")
        entries.append(LexiconEntry(word.rstrip("*"), wildcard, frozenset(cats)))
    return Lexicon(categories=categories, entries=entries,
                   fingerprint=hashlib.sha256(blob).hexdigest()[:16])


@dataclass
class TextFeatures:
    word_count: int
    percentages: dict  # category name -> 100 * hits / word_count


def extract(text: str, lexicon: Lexicon) -> TextFeatures:
    """Per-category percentages of matching tokens.

    A token counting toward k categories adds one hit to each. Empty text
    yields word_count 0 and all-zero percentages. Every whitespace character
    is ``\\W``, so no token spans one: the text is split on whitespace and
    each distinct word is tokenized and matched once per lexicon, into one
    integer that packs its token count and its hits in every category. One
    sum over the text's words then gives every count, and a word not yet
    cached adds one to a field above the counts, which says how many to look
    up. A text longer than ``_MAX_CHARS`` after lowercasing is a RangeError.
    """
    lowered = text.lower()
    if len(lowered) > _MAX_CHARS:
        raise RangeError(f"text of {len(lowered)} characters is longer than {_MAX_CHARS}")
    words = lowered.split()
    fields = len(lexicon.categories) + 1
    miss = 1 << (_FIELD_BITS * fields)
    packed = list(map(lexicon._packed.get, words, repeat(miss)))
    misses, total = divmod(sum(packed), miss)
    i = -1
    for _ in range(misses):
        i = packed.index(miss, i + 1)
        total += lexicon._pack(words[i])
    n, *hits = struct.unpack(f"<{fields}I", total.to_bytes(fields * _FIELD_BITS // 8, "little"))
    if n == 0:
        percentages = {name: 0.0 for name in lexicon.categories}
    else:
        percentages = {name: 100.0 * h / n for name, h in zip(lexicon.categories, hits)}
    return TextFeatures(word_count=n, percentages=percentages)


def clout_surrogate(features: TextFeatures) -> float:
    """Confidence-tone score in [0, 100], a logistic map of we% + you% - i%.

    This stands in for the proprietary summary variable whose formula is
    unpublished; every report flags it as a surrogate.
    """
    for cat in ("we", "you", "i"):
        if cat not in features.percentages:
            raise SurrogateUnavailable(f"lexicon lacks required category {cat!r}")
    z = (features.percentages["we"] + features.percentages["you"] - features.percentages["i"]) / CLOUT_SCALE
    # Guard exp overflow for extreme inputs; limits are exactly 0 and 100.
    if z > 500:
        return 100.0
    if z < -500:
        return 0.0
    return 100.0 / (1.0 + math.exp(-z))


def campaign_text(title: str, description: str) -> str:
    """Title and description are featurized jointly, title first."""
    return f"{title} {description}".strip()
