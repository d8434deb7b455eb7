"""Deterministic stream derivation for Monte Carlo ensembles.

Every Gaussian draw in the package comes from numpy's Philox counter-based
bit generator. Stream keys are derived from a 64-bit master seed by a
splitmix64 finalizer chain, so each (path, mode, level) tuple gets its own
statistically independent stream and any single path can be regenerated in
isolation, in any order, on any number of workers.

A batch of short streams (all modes of many noise paths, say) is drawn
without a Python step per stream. A stream of at most four draws reads at
most one Philox block while every draw takes numpy's one-word ziggurat path
(Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000), so the first Philox4x64-10
block of every key (Salmon, Moraes, Dror & Shaw, SC 2011) is computed at
once in uint64 arithmetic and mapped through that path with the constants
in ``_ziggurat`` (derived from the installed numpy by
``scripts/ziggurat_table.py``). A stream with a draw off the one-word path,
and every longer stream, is drawn by numpy itself: one generator is re-keyed
in place per stream, since the Philox constructor seeds itself from OS
entropy before the key is applied, which costs more than a short stream.
Either way each stream's bits are numpy's.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import _ziggurat

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15

# Philox4x64-10 as numpy runs it: round multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_BLOCK = 4  # raw words per Philox block
_LO32 = np.uint64(0xFFFFFFFF)
_MAG52 = np.uint64((1 << 52) - 1)
_WI = np.array(_ziggurat.WI)
_BOUND = np.array(_ziggurat.BOUND, dtype=np.uint64)


def splitmix64(x: int | np.ndarray) -> int | np.ndarray:
    """One splitmix64 output step (Steele et al. finalizer).

    Takes a Python int or a numpy uint64 array; array arithmetic wraps
    modulo 2^64, so both give the same words.
    """
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_key(master_seed: int, *indices: int | np.ndarray) -> int | np.ndarray:
    """Derive a 64-bit stream key from a master seed and index tuple.

    The first index is folded in by XOR before mixing, so
    ``derive_key(seed, path)`` is the splitmix64 image of
    ``seed XOR path``; further indices repeat the fold-and-mix round. An
    index may be a numpy uint64 array: the key is then the uint64 array
    of the per-element keys, word for word, from one array pass.
    """
    key = master_seed & _MASK64
    for ix in indices:
        key = splitmix64(key ^ (ix & _MASK64))
    return key


def path_seed(master_seed: int, path_index: int | np.ndarray) -> int | np.ndarray:
    """Per-path seed: splitmix64(master_seed XOR path_index).

    ``path_seed(base, np.arange(n, dtype=np.uint64))`` gives the n seeds
    ``path_seed(base, i)`` as one uint64 array, the form a seed family's
    batch draw takes.
    """
    return derive_key(master_seed, path_index)


def gaussian_stream(master_seed: int, *indices: int) -> np.random.Generator:
    """Fresh Philox generator for the stream addressed by the index tuple."""
    return np.random.Generator(np.random.Philox(key=derive_key(master_seed, *indices)))


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * m, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LO32, a >> np.uint64(32)
    # neither partial sum can pass 2^64
    t = a_hi * m_lo + ((a_lo * m_lo) >> np.uint64(32))
    u = a_lo * m_hi + (t & _LO32)
    hi = a_hi * m_hi + (t >> np.uint64(32)) + (u >> np.uint64(32))
    return hi, a * np.uint64(m)


def _philox_first_block(keys: np.ndarray) -> np.ndarray:
    """(len(keys), 4) raw words: the first block of ``Philox(key=k)`` per uint64 key.

    numpy steps the counter before each block, so the first block is the
    counter (1, 0, 0, 0) under the key (k, 0).
    """
    n = len(keys)
    c0 = np.ones(n, dtype=np.uint64)
    c1, c2, c3 = (np.zeros(n, dtype=np.uint64) for _ in range(3))
    for r in range(_PHILOX_ROUNDS):
        # round r's key is (k, 0) stepped r times by the Weyl increments
        k0 = keys + np.uint64(r * _PHILOX_W[0] & _MASK64)
        k1 = np.uint64(r * _PHILOX_W[1] & _MASK64)
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=1)


def _one_block_normals(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, fast): ``standard_normal(size)`` per key where one block decides it.

    size <= 4. Draw i reads raw word i of the key's first block through
    numpy's one-word ziggurat path. fast[j] is True when every draw of key
    j stays on that path; then values[j] is the stream's draws bit for bit,
    and otherwise values[j] is meaningless.
    """
    words = _philox_first_block(keys)[:, :size]
    layer = (words & np.uint64(0xFF)).astype(np.intp)
    magnitude = (words >> np.uint64(9)) & _MAG52
    values = magnitude.astype(np.float64) * _WI[layer]
    np.negative(values, out=values, where=((words >> np.uint64(8)) & np.uint64(1)) == 1)
    fast = np.all(magnitude < _BOUND[layer], axis=1)
    return values, fast


def _lane_keys(
    master_seeds: Sequence[int], prefix: tuple[int, ...], lanes: int
) -> np.ndarray:
    """(seeds, lanes) keys: derive_key(s, *prefix, j + 1) in row s, column j.

    The prefix is folded into all the seeds' bases in one array pass, the
    lane index in a second; the words are derive_key's. A uint64 seed
    array is read whole; other seeds, such as Python ints, are reduced
    mod 2^64 one by one.
    """
    base = master_seeds
    if getattr(base, "dtype", None) != np.uint64:
        base = np.fromiter((int(s) & _MASK64 for s in base), np.uint64, len(base))
    for ix in prefix:
        base = splitmix64(base ^ np.uint64(ix & _MASK64))
    return splitmix64(base[:, None] ^ np.arange(1, lanes + 1, dtype=np.uint64))


def standard_normal_rows(
    master_seeds: Sequence[int], prefix: tuple[int, ...], lanes: int, size: int
) -> np.ndarray:
    """(seeds, lanes, size) standard normals, row j from stream (*prefix, j + 1).

    Row j of seed s equals ``gaussian_stream(s, *prefix, j + 1)
    .standard_normal(size)`` bit for bit. Each seed's base key is
    derive_key(s, *prefix), and every (seed, lane) key comes out of one
    splitmix64 pass over those bases. Streams of at most one Philox block
    are drawn in one pass where numpy's one-word ziggurat path decides
    them; the rest re-key one generator local to the call, so concurrent
    calls share no state.
    """
    keys = _lane_keys(master_seeds, prefix, lanes)
    n_seeds = keys.shape[0]
    keys = keys.ravel()
    if size <= _BLOCK:
        out, fast = _one_block_normals(keys, size)
        slow = np.flatnonzero(~fast)
    else:
        out = np.empty((len(keys), size))
        slow = np.arange(len(keys))
    # a fixed seed spares the OS-entropy draw; the key is replaced per lane
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    zeros = (0, 0, 0, 0)
    for j, key in zip(slow.tolist(), keys[slow].tolist()):
        # a freshly keyed stream: zero counter, empty output buffer
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": (key, 0)},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        out[j] = gen.standard_normal(size)
    return out.reshape(n_seeds, lanes, size)
