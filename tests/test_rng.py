"""Stream-key derivation and the batched row sampler."""

import numpy as np
import pytest

from stf_spde.rng import derive_key, gaussian_stream, splitmix64, standard_normal_rows


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
