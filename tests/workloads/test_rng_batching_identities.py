"""Pin the RNG identities the batched workload draw paths rely on.

The vectorized CPU workloads pull blocks of ``standard_normal`` draws
and apply the distribution transforms themselves (DESIGN.md §8).  That
is only sound because, for numpy's ``Generator``:

* a size-N draw consumes the bit stream exactly like N scalar draws;
* ``normal(loc, scale)`` is ``loc + scale * standard_normal()`` with
  plain (unfused) IEEE double arithmetic;
* ``lognormal(0, sigma)`` is libm's ``exp`` of ``sigma * z`` — the same
  ``exp`` as ``math.exp`` (NOT ``np.exp``, whose SIMD path differs in
  the last ulp for a few percent of draws — see DESIGN.md §6).

The batched access-bit scan (``TieredMemory.scan_many``) and the array
occupancy functions in ``repro.agents.memory.classify`` lean on two
more:

* ``np.exp`` / ``np.log`` give each element of a vector the value they
  give that element alone (no position- or length-dependent SIMD tail);
* ``binomial(n, p_vec)`` is the sequence of scalar ``binomial(n, p_i)``
  draws.

If any of these ever breaks (numpy build with FMA contraction, a
different libm), this file fails loudly instead of the golden digests
drifting silently.
"""

import math

import numpy as np


def test_batched_standard_normal_matches_sequential():
    batch = np.random.default_rng(7).standard_normal(1000)
    rng = np.random.default_rng(7)
    sequential = np.array([rng.standard_normal() for _ in range(1000)])
    assert np.array_equal(batch, sequential)


def test_batched_uniform_and_integers_match_sequential():
    batch_rng, seq_rng = np.random.default_rng(3), np.random.default_rng(3)
    assert np.array_equal(
        batch_rng.random(500),
        np.array([seq_rng.random() for _ in range(500)]),
    )
    batch_rng, seq_rng = np.random.default_rng(4), np.random.default_rng(4)
    assert np.array_equal(
        batch_rng.integers(2, 11, size=500),
        np.array([seq_rng.integers(2, 11) for _ in range(500)]),
    )


def test_normal_is_affine_standard_normal():
    api, manual = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(2000):
        assert api.normal(0.95, 0.02) == 0.95 + 0.02 * manual.standard_normal()


def test_lognormal_is_math_exp_of_scaled_standard_normal():
    api, manual = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(2000):
        want = api.lognormal(0.0, 0.08)
        assert want == math.exp(0.08 * manual.standard_normal())


def test_standard_normal_out_matches_fresh_allocation():
    """The refill path uses ``out=``; it must be the same draw sequence."""
    with_out, fresh = np.random.default_rng(11), np.random.default_rng(11)
    buffer = np.empty(512)
    with_out.standard_normal(out=buffer)
    assert np.array_equal(buffer, fresh.standard_normal(512))


def test_strided_affine_transform_matches_scalar_ops():
    """The even/odd interleave transform is elementwise-exact."""
    z = np.random.default_rng(13).standard_normal(512)
    out = np.empty(256)
    np.multiply(z[0::2], 0.02, out=out)
    out += 0.95
    for k in range(256):
        assert out[k] == 0.95 + 0.02 * z[2 * k]


def test_vector_exp_and_log_match_scalar_calls():
    """Every lane of the vector loop equals the one-element call."""
    rng = np.random.default_rng(17)
    for size in (1, 2, 3, 7, 8, 9, 31, 256, 513):
        x = -rng.uniform(0.0, 40.0, size)  # exp(-a/pages) arguments
        x[rng.random(size) < 0.1] = 0.0
        vector = np.exp(x)
        strided = np.exp(x[::2])
        y = rng.uniform(1e-6, 1.0, size)  # log(1 - fraction) arguments
        logs = np.log(y)
        for i in range(size):
            assert vector[i] == np.exp(float(x[i]))
            assert logs[i] == np.log(float(y[i]))
        for i in range(strided.size):
            assert strided[i] == np.exp(float(x[2 * i]))


def test_vector_binomial_matches_scalar_draw_sequence():
    drive = np.random.default_rng(19)
    p = np.concatenate([
        drive.uniform(0.0, 1.0, 1500),
        drive.uniform(0.0, 1e-3, 500),       # nearly idle regions
        1.0 - drive.uniform(0.0, 1e-6, 500),  # saturated regions
        [0.0, 1.0],
    ])
    drive.shuffle(p)
    batch_rng, seq_rng = np.random.default_rng(23), np.random.default_rng(23)
    batch = batch_rng.binomial(512, p)
    sequential = [seq_rng.binomial(512, float(p_i)) for p_i in p]
    assert batch.tolist() == sequential
    assert batch_rng.random() == seq_rng.random()  # same stream position
