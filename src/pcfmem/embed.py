"""Deterministic hashed text embeddings and numeric feature vectors.

Text goes through lowercase alphanumeric tokenization, unigram+bigram
hashing (64-bit FNV-1a) into 256 signed buckets, then L2 normalization.
No learned weights anywhere; identical strings always embed identically.
"""

from __future__ import annotations

import functools
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


# a pure function of the token; a corpus has tens of thousands of distinct
# tokens and bigrams
@functools.lru_cache(maxsize=None)
def _bucket(token: str) -> tuple[int, float]:
    h = fnv1a64(token)
    idx = h % TEXT_DIM
    sign = 1.0 if (h >> 32) & 1 == 0 else -1.0
    return idx, sign


def embed_text(text: str) -> np.ndarray:
    vec = np.zeros(TEXT_DIM, dtype=np.float64)
    tokens = tokenize(text)
    for tok in tokens:
        idx, sign = _bucket(tok)
        vec[idx] += sign
    for a, b in zip(tokens, tokens[1:]):
        idx, sign = _bucket(a + " " + b)
        vec[idx] += sign
    norm = math.sqrt(float(np.dot(vec, vec)))
    if norm > 0.0:
        vec /= norm
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


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (na * nb)
