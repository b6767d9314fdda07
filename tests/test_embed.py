"""Hash-embedding checks: tokenizer, FNV vectors, vector-space properties."""

import math
import random

import numpy as np
import pytest

from pcfmem import embed, skills
from pcfmem.physics import Geometry, SimResult


def test_fnv1a64_published_vectors():
    assert embed.fnv1a64("") == 0xCBF29CE484222325
    assert embed.fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert embed.fnv1a64("foobar") == 0x85944171F73967E8


def test_tokenize_lowercases_and_splits_on_nonalnum():
    assert embed.tokenize("Pitch: 2.30um!") == ["pitch", "2", "30um"]
    assert embed.tokenize("") == []
    assert embed.tokenize("   --- ") == []
    assert embed.tokenize("n_eff") == ["n", "eff"]


def _tokenize_reference(text: str) -> list[str]:
    """The character loop: maximal runs of str.isalnum characters."""
    tokens = []
    current = []
    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


def test_tokenize_matches_isalnum_runs_on_every_code_point():
    block = 0x1000
    for start in range(0, 0x110000, block):
        text = " ".join("a" + chr(c) + "b" for c in range(start, start + block))
        assert embed.tokenize(text) == _tokenize_reference(text), hex(start)


def test_tokenize_matches_isalnum_runs_on_mixed_script_text():
    pool = (
        "abcXYZ019_ -.,:;!?'\t\n"
        "\u00e9\u00df\u0130\u03a3\u03c3\u03c2\u0416\u0436"  # Latin-1, Greek sigma, Cyrillic
        "\u05d0\u0627\u0660\u0669\u0915\u093f\u0966"  # Hebrew, Arabic digits, Devanagari
        "\u4e2d\u6587\u3042\u30a2\uac00\u0e01\u0e31"  # CJK, kana, Hangul, Thai
        "\u00b2\u00bd\u2167\u2460\uff21\uff10\u200b\u00a0"  # digits, numerals, fullwidth
        "\u0301\u1e9e\ufb01\U0001d400\U0001f600\U00010400"  # marks, ligature, astral
    )
    rng = random.Random(11)
    for _ in range(2000):
        text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 40)))
        assert embed.tokenize(text) == _tokenize_reference(text), repr(text)


def test_text_vectors_embed_each_distinct_text_once(monkeypatch):
    real = embed.embed_text
    calls = []

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(embed, "embed_text", counting)
    texts = embed.TextVectors()
    keys = ["raise the pitch", "cut loss", "raise the pitch", "", "cut loss"]
    vecs = [texts[k] for k in keys]
    assert calls == ["raise the pitch", "cut loss", ""]
    for key, vec in zip(keys, vecs):
        assert np.array_equal(vec, real(key))
        with pytest.raises(ValueError):
            vec[0] = 1.0


def test_embed_text_unit_norm_and_deterministic():
    v1 = embed.embed_text("raise the pitch to cut loss")
    v2 = embed.embed_text("raise the pitch to cut loss")
    assert v1.shape == (embed.TEXT_DIM,)
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-12
    assert np.array_equal(v1, v2)


def _embed_text_reference(text: str) -> np.ndarray:
    """The per-token loop: add each unigram's and bigram's sign into its bucket."""
    vec = np.zeros(embed.TEXT_DIM, dtype=np.float64)
    tokens = embed.tokenize(text)
    grams = tokens + [a + " " + b for a, b in zip(tokens, tokens[1:])]
    for gram in grams:
        h = embed.fnv1a64(gram)
        vec[h % embed.TEXT_DIM] += 1.0 if (h >> 32) & 1 == 0 else -1.0
    norm = math.sqrt(float(np.dot(vec, vec)))
    if norm > 0.0:
        vec /= norm
    return vec


def _cancelling_text() -> str:
    """Two tokens with opposite signs in one bucket and no other gram there."""
    first = {}
    for i in range(100000):
        tok = f"w{i}"
        h = embed.fnv1a64(tok)
        idx, sign = h % embed.TEXT_DIM, (h >> 32) & 1
        if (idx, 1 - sign) in first:
            text = f"{first[idx, 1 - sign]} {tok}"  # also the bigram
            if embed.fnv1a64(text) % embed.TEXT_DIM != idx:
                return text
        first.setdefault((idx, sign), tok)
    raise AssertionError("no cancelling pair found")


def test_embed_text_matches_the_per_token_loop_bit_for_bit(small_corpus):
    texts = [s.text for t in small_corpus["traces"] for s in t.spans]
    texts += [q.text for q in small_corpus["queries"]]
    texts += [s.description for s in skills.initial_bank().skills]
    cancelling = _cancelling_text()
    texts += [
        "",
        "pitch",
        cancelling,
        "Pitch 2.3\u00b5m \u2192 \u0394n_eff: \u4e2d\u6587 \u0416\u0436 caf\u00e9 \U0001d400x",
    ]
    for text in texts:
        assert embed.embed_text(text).tobytes() == _embed_text_reference(text).tobytes(), text
    a, b = cancelling.split()
    assert embed.fnv1a64(a) % embed.TEXT_DIM == embed.fnv1a64(b) % embed.TEXT_DIM
    assert embed.embed_text(cancelling)[embed.fnv1a64(a) % embed.TEXT_DIM] == 0.0


def test_embed_text_empty_is_zero_vector():
    v = embed.embed_text("")
    assert v.shape == (embed.TEXT_DIM,)
    assert np.all(v == 0.0)


def test_related_texts_score_higher_than_unrelated():
    a = embed.embed_text("increase pitch to reduce confinement loss")
    b = embed.embed_text("raising pitch lowers the confinement loss")
    c = embed.embed_text("quarterly revenue grew across all regions")
    assert embed.cosine(a, b) > embed.cosine(a, c)


def test_cosine_properties():
    rng = np.random.default_rng(7)
    v = rng.normal(0.0, 1.0, embed.TEXT_DIM)
    assert embed.cosine(v, v) == pytest.approx(1.0, abs=1e-12)
    assert embed.cosine(v, np.zeros(embed.TEXT_DIM)) == 0.0
    with pytest.raises(ValueError):
        embed.cosine(v, np.zeros(8))


def test_embed_numeric_shape_and_range():
    geom = Geometry(2.3, 1.15, 6)
    res = SimResult(
        n_eff=1.431, dispersion_ps_nm_km=77.2, loss_db_km=0.025, lambda_um=1.55
    )
    v = embed.embed_numeric(geom, res)
    assert v.shape == (embed.NUMERIC_DIM,)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    assert v[-1] == 0.0  # reserved slot
