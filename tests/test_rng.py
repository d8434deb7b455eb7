"""Stream-key derivation and the batched row sampler."""

import itertools

import numpy as np
import pytest

from stf_spde import _ziggurat
from stf_spde.rng import (
    _lane_keys,
    _one_block_normals,
    _philox_first_block,
    derive_key,
    gaussian_stream,
    path_seed,
    splitmix64,
    standard_normal_rows,
)


def test_splitmix64_on_arrays_matches_ints():
    xs = [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
    words = splitmix64(np.array(xs, dtype=np.uint64))
    assert words.dtype == np.uint64
    assert words.tolist() == [splitmix64(x) for x in xs]


@pytest.mark.parametrize(
    "seed, prefix, lanes, size",
    [
        (0, (2,), 16, 4),
        (2**64 - 1, (7, 3), 5, 33),
        (derive_key(11, 4), (1, 2, 3), 3, 1),
        (12345, (2,), 1, 128),
        (derive_key(3, 1), (2,), 16, 2),
        (2**63 + 1, (5,), 9, 3),
        (987654321, (2,), 16, 5),
        (-(2**65) - 5, (2,), 3, 4),
    ],
)
def test_rows_match_single_streams(seed, prefix, lanes, size):
    rows = standard_normal_rows([seed], prefix, lanes, size)[0]
    assert rows.shape == (lanes, size)
    for j in range(lanes):
        expected = gaussian_stream(seed, *prefix, j + 1).standard_normal(size)
        assert np.array_equal(rows[j], expected)


@pytest.mark.parametrize("prefix, lanes, size", [((2,), 16, 4), ((7, 3), 5, 33)])
def test_rows_for_many_seeds_match_single_streams(prefix, lanes, size):
    seeds = [0, 2**64 - 1, derive_key(11, 4), 12345, derive_key(11, 4)]
    rows = standard_normal_rows(seeds, prefix, lanes, size)
    assert rows.shape == (len(seeds), lanes, size)
    for s, seed in enumerate(seeds):
        assert np.array_equal(rows[s], standard_normal_rows([seed], prefix, lanes, size)[0])
        for j in range(lanes):
            expected = gaussian_stream(seed, *prefix, j + 1).standard_normal(size)
            assert np.array_equal(rows[s, j], expected)
    as_array = np.array(seeds, dtype=np.uint64)
    assert np.array_equal(standard_normal_rows(as_array, prefix, lanes, size), rows)
    assert standard_normal_rows([], prefix, lanes, size).shape == (0, lanes, size)


def _rekeyed_draws(keys, size):
    """numpy's own draws per key, from one generator re-keyed per key."""
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    zeros = (0, 0, 0, 0)
    out = np.empty((len(keys), size))
    for j, key in enumerate(keys):
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": (key, 0)},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        out[j] = gen.standard_normal(size)
    return out


def test_philox_first_block_matches_random_raw():
    keys = np.random.default_rng(7).integers(0, 2**64, 200, dtype=np.uint64)
    words = _philox_first_block(keys)
    for key, row in zip(keys.tolist(), words):
        assert np.array_equal(row, np.random.Philox(key=key).random_raw(4))


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 128])
def test_random_seeds_match_single_streams(size):
    seeds = np.random.default_rng(size).integers(0, 2**64, 64, dtype=np.uint64)
    rows = standard_normal_rows(seeds, (2,), 4, size)
    for s, seed in enumerate(seeds.tolist()):
        for j in range(4):
            expected = gaussian_stream(seed, 2, j + 1).standard_normal(size)
            assert np.array_equal(rows[s, j], expected)


@pytest.mark.parametrize("prefix", [(), (2,), (7, 3)])
def test_lane_keys_equal_per_seed_derive_key(prefix):
    seeds = [0, 1, 2**63, 2**64 - 1, -(2**65) - 5, derive_key(11, 4)]
    keys = _lane_keys(seeds, prefix, 3)
    assert keys.dtype == np.uint64
    expected = [[derive_key(s, *prefix, j + 1) for j in range(3)] for s in seeds]
    assert keys.tolist() == expected
    as_array = np.array([int(s) & (2**64 - 1) for s in seeds], dtype=np.uint64)
    assert np.array_equal(_lane_keys(as_array, prefix, 3), keys)


def test_path_seed_on_an_index_array_gives_each_seed():
    for base in (101, 0, 2**64 - 1):
        family = path_seed(base, np.arange(20_000, dtype=np.uint64))
        assert family.dtype == np.uint64
        assert family.tolist() == [path_seed(base, i) for i in range(20_000)]


def test_suite_wiener_lanes_match_single_streams():
    # every lane verify's wiener suite draws: 20,000 paths x 16 modes x 4 steps
    seeds = [path_seed(101, i) for i in range(20_000)]
    rows = standard_normal_rows(seeds, (2,), 16, 4).reshape(-1, 4)
    keys = _lane_keys(seeds, (2,), 16).ravel()
    expected = _rekeyed_draws(keys.tolist(), 4)
    assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))
    for lane in range(0, len(keys), 97):
        seed, mode = seeds[lane // 16], lane % 16 + 1
        single = gaussian_stream(seed, 2, mode).standard_normal(4)
        assert np.array_equal(expected[lane], single)
    # a table that drifted from numpy would send lanes to the slow path, not miss bits
    _, fast = _one_block_normals(keys, 4)
    assert fast.mean() >= 0.9


def test_lane_off_the_one_word_path_matches_single_stream():
    for seed in itertools.count():
        key = derive_key(seed, 2, 1)
        word = int(np.random.Philox(key=key).random_raw())
        if (word >> 9) & (2**52 - 1) >= _ziggurat.BOUND[word & 0xFF]:
            break
    _, fast = _one_block_normals(np.array([key], dtype=np.uint64), 4)
    assert not fast[0]
    rows = standard_normal_rows([seed], (2,), 1, 4)
    assert np.array_equal(rows[0, 0], gaussian_stream(seed, 2, 1).standard_normal(4))
