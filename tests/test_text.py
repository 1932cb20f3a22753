import hashlib
import re
import sys
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from fundlens import text as text_module
from fundlens.errors import RangeError, SchemaError, SurrogateUnavailable
from fundlens.text import (
    Lexicon,
    LexiconEntry,
    campaign_text,
    clout_surrogate,
    extract,
    load_lexicon,
)
from fundlens.text import _TOKEN


def tokenize(text: str):
    """Lowercased tokens, the token rule ``extract`` applies word by word: split
    on anything that is not a letter, digit or internal apostrophe."""
    return _TOKEN.findall(text.lower())


def test_lexicon_fingerprint_is_the_hash_of_its_file(tmp_path):
    bundled = resources.files("fundlens.data").joinpath("demo_lexicon.dic").read_bytes()
    assert load_lexicon().fingerprint == hashlib.sha256(bundled).hexdigest()[:16]
    path = tmp_path / "crlf.dic"
    path.write_bytes(bundled.replace(b"\n", b"\r\n"))
    lexicon = load_lexicon(path)
    assert lexicon.fingerprint == hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert (lexicon.categories, lexicon.entries) == (load_lexicon().categories, load_lexicon().entries)


def test_lexicon_equality_ignores_the_word_cache():
    used, fresh = load_lexicon(), load_lexicon()
    extract("we think you know", used)
    assert used == fresh
    assert repr(used) == repr(fresh)


def test_tokenize_basic():
    assert tokenize("We think, we KNOW!") == ["we", "think", "we", "know"]
    assert tokenize("don't stop") == ["don't", "stop"]
    assert tokenize("snake_case under_scores") == ["snake", "case", "under", "scores"]
    assert tokenize("a1 2b 3") == ["a1", "2b", "3"]
    assert tokenize("") == []
    assert tokenize("  \n\t ") == []


def test_bundled_lexicon_loads(lexicon):
    assert "i" in lexicon.categories
    assert "we" in lexicon.categories
    assert "you" in lexicon.categories
    assert len(lexicon.categories) >= 10


def test_lexicon_wildcard_and_multi_category(lexicon):
    # "think*" is a wildcard entry under insight; inflections must match.
    insight = lexicon.category_index("insight")
    assert insight in lexicon.match("think")
    assert insight in lexicon.match("thinking")
    assert lexicon.match("zzzz-not-a-word") == frozenset()


def test_exact_beats_nothing_and_is_case_insensitive(lexicon):
    we = lexicon.category_index("we")
    assert we in lexicon.match("we")
    feats_upper = extract("WE THINK", lexicon)
    feats_lower = extract("we think", lexicon)
    assert feats_upper.percentages == feats_lower.percentages


def test_extract_hand_counts(lexicon):
    # 4 words; "we" appears twice (we-category), "think" once (insight).
    feats = extract("we think we can", lexicon)
    assert feats.word_count == 4
    assert feats.percentages["we"] == pytest.approx(50.0)
    assert feats.percentages["insight"] == pytest.approx(25.0)
    assert feats.percentages["you"] == 0.0


def test_extract_empty_text(lexicon):
    feats = extract("", lexicon)
    assert feats.word_count == 0
    assert all(v == 0.0 for v in feats.percentages.values())


def test_multi_category_token_counts_in_each():
    lex = Lexicon(
        categories=["a", "b"],
        entries=[LexiconEntry("hello", False, frozenset({0, 1}))],
    )
    feats = extract("hello world", lex)
    assert feats.percentages["a"] == pytest.approx(50.0)
    assert feats.percentages["b"] == pytest.approx(50.0)


def test_load_lexicon_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.dic"
    bad.write_text("%\n1\ti\n2\ti\n%\nme\t1\n")  # duplicate category name
    with pytest.raises(SchemaError):
        load_lexicon(bad)
    bad2 = tmp_path / "bad2.dic"
    bad2.write_text("%\n1\ti\n%\nme\t9\n")  # unknown category reference
    with pytest.raises(SchemaError):
        load_lexicon(bad2)


def test_clout_surrogate_values(lexicon):
    # Balanced we/you vs i gives the logistic midpoint.
    feats = extract("", lexicon)
    assert clout_surrogate(feats) == pytest.approx(50.0)
    # All-"we" text pushes the score above 50; all-"I" below.
    high = extract("we we we we", lexicon)
    low = extract("i i i i", lexicon)
    assert clout_surrogate(high) > 50.0 > clout_surrogate(low)
    assert 0.0 <= clout_surrogate(low) <= 100.0


def test_clout_surrogate_requires_pronoun_categories():
    lex = Lexicon(categories=["misc"], entries=[LexiconEntry("x", False, frozenset({0}))])
    with pytest.raises(SurrogateUnavailable):
        clout_surrogate(extract("x", lex))


def test_campaign_text_joins_title_first():
    assert campaign_text("Help us", "we need support") == "Help us we need support"
    assert campaign_text("", "body only") == "body only"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["we", "think", "you", "i", "about", "zebra"]),
                min_size=1, max_size=40),
       st.randoms())
def test_extract_permutation_invariance(words, rnd):
    lexicon = load_lexicon()
    shuffled = list(words)
    rnd.shuffle(shuffled)
    a = extract(" ".join(words), lexicon)
    b = extract(" ".join(shuffled), lexicon)
    assert a.word_count == b.word_count
    assert a.percentages == b.percentages


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=200))
def test_extract_never_crashes_and_stays_in_range(text):
    lexicon = load_lexicon()
    feats = extract(text, lexicon)
    assert feats.word_count >= 0
    for v in feats.percentages.values():
        assert 0.0 <= v <= 100.0


def test_duplicating_text_preserves_percentages(lexicon):
    text = "we think you know about family money"
    a = extract(text, lexicon)
    b = extract(text + " " + text, lexicon)
    assert b.word_count == 2 * a.word_count
    for k in a.percentages:
        assert b.percentages[k] == pytest.approx(a.percentages[k], abs=1e-12)


def _linear_match(entries, token):
    """The reference for Lexicon.match: scan every entry."""
    cats = frozenset()
    for e in entries:
        if token.startswith(e.pattern) if e.wildcard else token == e.pattern:
            cats = cats | e.categories
    return cats


_NESTED = [
    LexiconEntry("a", True, frozenset({0})),
    LexiconEntry("ab", True, frozenset({1})),
    LexiconEntry("ab", False, frozenset({2})),      # "ab" is exact and a wildcard
    LexiconEntry("ab", True, frozenset({3})),       # a second "ab*" entry adds to the first
    LexiconEntry("abc", False, frozenset({3})),
    LexiconEntry("abcdef", True, frozenset({0, 3})),
    LexiconEntry("b", False, frozenset({1})),
]


def test_match_prefix_table_on_nested_wildcards():
    lex = Lexicon(categories=["w", "x", "y", "z"], entries=_NESTED)
    assert lex.match("a") == {0}
    assert lex.match("ab") == {0, 1, 2, 3}
    assert lex.match("abcde") == {0, 1, 3}            # shorter than the "abcdef" prefix
    assert lex.match("abcdefg") == {0, 1, 3}
    assert lex.match("ba") == frozenset()
    for token in ("", "a", "ab", "abc", "abcd", "abcdef", "abcdefgh", "b", "ba", "bab", "x"):
        assert lex.match(token) == _linear_match(_NESTED, token), token


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="abcdef'", max_size=9), max_size=20))
def test_match_prefix_table_equals_linear_scan(tokens):
    nested = Lexicon(categories=["w", "x", "y", "z"], entries=_NESTED)
    demo = load_lexicon()
    for token in tokens:
        assert nested.match(token) == _linear_match(_NESTED, token)
        for word in (token, "think" + token, "we" + token):
            assert demo.match(word) == _linear_match(demo.entries, word)


#: Every character str.split() splits on; each is \W, so no token spans one.
_WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


def test_no_token_spans_whitespace():
    assert [c for c in _WHITESPACE if re.match(r"[\w']", c)] == []


def _reference_counts(text, lexicon):
    """word_count and percentages counted token by token, as the definition reads."""
    tokens = tokenize(text)
    hits = [0] * len(lexicon.categories)
    for token in tokens:
        for ci in lexicon.match(token):
            hits[ci] += 1
    return len(tokens), [(100.0 * h / len(tokens) if tokens else 0.0).hex() for h in hits]


_PIECES = st.one_of(
    st.sampled_from(["we", "We", "think", "thinking", "i'm", "don't", "you", "our", "money", "i"]),
    st.text(alphabet="aiwzÉéΩαßİǅ09_'", min_size=1, max_size=8),
    st.text(alphabet=_WHITESPACE, min_size=1, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_PIECES, max_size=40).map("".join))
@example("'we' we''re ''i İstanbul\x1cthink　x_y\x85our'\xa0WE")
@example("")
@example("we " * 70_000 + "i'm zq1")  # the token count and the we hits pass 2**16
def test_cached_extract_equals_token_by_token_counts(text):
    lexicon = load_lexicon()
    n, pcts = _reference_counts(text, lexicon)
    for _ in range(2):  # a cold cache, then a warm one
        feats = extract(text, lexicon)
        assert feats.word_count == n
        assert [p.hex() for p in feats.percentages.values()] == pcts
        assert list(feats.percentages) == lexicon.categories


def test_extract_refuses_a_text_whose_counts_could_carry(monkeypatch):
    # Lowercasing "İ" gives two characters, so the bound applies to the lowered text.
    monkeypatch.setattr(text_module, "_MAX_CHARS", 4)
    assert extract("we i", load_lexicon()).word_count == 2
    with pytest.raises(RangeError):
        extract("we İ", load_lexicon())
