"""Deterministic hashed text embeddings and numeric feature vectors.

Text goes through lowercase alphanumeric tokenization, unigram+bigram
hashing (64-bit FNV-1a) into 256 signed buckets, then L2 normalization.
No learned weights anywhere; identical strings always embed identically.
"""

from __future__ import annotations

import math
import re

import numpy as np

TEXT_DIM = 256
NUMERIC_DIM = 8

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: str) -> int:
    h = _FNV_OFFSET
    for byte in data.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


# runs of str.isalnum characters: \w is isalnum plus "_"
_TOKEN = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


# one int object per slot: most slots are above CPython's cached small ints
_SLOT_INTS = tuple(range(2 * TEXT_DIM))


class _Slots(dict):
    """Gram (a token, or two tokens joined by a space) -> its FNV bucket,
    plus TEXT_DIM when its sign is -1."""

    def __missing__(self, gram: str) -> int:
        h = fnv1a64(gram)
        slot = self[gram] = _SLOT_INTS[h % TEXT_DIM + ((h >> 32) & 1) * TEXT_DIM]
        return slot


_SLOTS = _Slots()  # a corpus has tens of thousands of distinct grams


def embed_text(text: str) -> np.ndarray:
    tokens = tokenize(text)
    grams = tokens + [a + " " + b for a, b in zip(tokens, tokens[1:])]
    # bucket sums are small integers, exact in float64 in any order
    counts = np.bincount(list(map(_SLOTS.__getitem__, grams)), minlength=2 * TEXT_DIM)
    vec = (counts[:TEXT_DIM] - counts[TEXT_DIM:]).astype(np.float64)
    n = norm(vec)
    if n > 0.0:
        vec /= n
    return vec


class TextVectors(dict):
    """Text -> its ``embed_text`` vector, embedded on first lookup, read-only.

    Keyed on the text itself, so a rewritten statement or description is a
    new key and a stored vector never goes stale.
    """

    def __missing__(self, text: str) -> np.ndarray:
        vec = embed_text(text)
        vec.flags.writeable = False
        self[text] = vec
        return vec


def embed_numeric(geom, res) -> np.ndarray:
    """Scaled geometry/property features in [0, 1] (not normalized)."""
    log_alpha = math.log10(res.loss_db_km) if res.loss_db_km > 0.0 else -12.0
    feats = np.array(
        [
            geom.pitch_um / 4.0,
            geom.dratio,
            (geom.n_rings - 3) / 7.0,
            (res.lambda_um - 1.2) / 0.5,
            min(max((res.n_eff - 1.40) / 0.06, 0.0), 1.0),
            min(max((log_alpha + 12.0) / 16.0, 0.0), 1.0),
            min(max(res.dispersion_ps_nm_km / 200.0 + 0.5, 0.0), 1.0),
            0.0,
        ],
        dtype=np.float64,
    )
    return feats


def norm(v: np.ndarray) -> float:
    return math.sqrt(float(np.dot(v, v)))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return cosine_from_norms(a, norm(a), b, norm(b))


def cosine_from_norms(a: np.ndarray, na: float, b: np.ndarray, nb: float) -> float:
    """``cosine(a, b)`` given both norms; a zero norm gives 0.0."""
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (na * nb)
