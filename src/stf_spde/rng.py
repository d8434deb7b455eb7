"""Deterministic stream derivation for Monte Carlo ensembles.

Every Gaussian draw in the package comes from numpy's Philox counter-based
bit generator. Stream keys are derived from a 64-bit master seed by a
splitmix64 finalizer chain, so each (path, mode, level) tuple gets its own
statistically independent stream and any single path can be regenerated in
isolation, in any order, on any number of workers.

A Philox stream's whole state is its 128-bit key plus a counter, so a batch
of streams (all modes of one noise path, say) is drawn by re-keying one
generator in place rather than building a new one per stream: the Philox
constructor seeds itself from OS entropy before the key is applied, which
costs more than drawing a short stream.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int | np.ndarray) -> int | np.ndarray:
    """One splitmix64 output step (Steele et al. finalizer).

    Takes a Python int or a numpy uint64 array; array arithmetic wraps
    modulo 2^64, so both give the same words.
    """
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_key(master_seed: int, *indices: int) -> int:
    """Derive a 64-bit stream key from a master seed and index tuple.

    The first index is folded in by XOR before mixing, so
    ``derive_key(seed, path)`` is the splitmix64 image of
    ``seed XOR path``; further indices repeat the fold-and-mix round.
    """
    key = master_seed & _MASK64
    for ix in indices:
        key = splitmix64(key ^ (ix & _MASK64))
    return key


def path_seed(master_seed: int, path_index: int) -> int:
    """Per-path seed: splitmix64(master_seed XOR path_index)."""
    return derive_key(master_seed, path_index)


def gaussian_stream(master_seed: int, *indices: int) -> np.random.Generator:
    """Fresh Philox generator for the stream addressed by the index tuple."""
    return np.random.Generator(np.random.Philox(key=derive_key(master_seed, *indices)))


def standard_normal_rows(
    master_seeds: Sequence[int], prefix: tuple[int, ...], lanes: int, size: int
) -> np.ndarray:
    """(seeds, lanes, size) standard normals, row j from stream (*prefix, j + 1).

    Row j of seed s equals ``gaussian_stream(s, *prefix, j + 1)
    .standard_normal(size)`` bit for bit. Each seed's base key is
    derive_key(s, *prefix), and every (seed, lane) key comes out of one
    splitmix64 pass over those bases. The generator is local to the call,
    so concurrent calls share no state.
    """
    base = np.fromiter(
        (derive_key(int(s), *prefix) for s in master_seeds), dtype=np.uint64
    )
    lanes_ix = np.arange(1, lanes + 1, dtype=np.uint64)
    keys = splitmix64(base[:, None] ^ lanes_ix).ravel().tolist()
    # a fixed seed spares the OS-entropy draw; the key is replaced per lane
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    zeros = (0, 0, 0, 0)
    out = np.empty((len(keys), size))
    for j, key in enumerate(keys):
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
    return out.reshape(len(base), lanes, size)
