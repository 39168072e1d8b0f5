"""The float spectrum's one LAPACK entry point against numpy's wrappers.

linalg._eigh and linalg._eigvalsh call the gufuncs behind np.linalg.eigh
and np.linalg.eigvalsh directly, which are private to numpy.  These tests
pin them to the public wrappers, bit for bit and in their error contract,
on whichever numpy is installed; they import nothing but numpy, pytest
and the package.
"""

import random

import numpy as np
import pytest

from twodist import linalg


def symmetric(rng, m):
    """A float matrix of order m whose two triangles agree bit for bit:
    full rank, or of lower rank with repeated zero eigenvalues."""
    if rng.random() < 0.5:
        A = np.array([[rng.uniform(-2, 2) for _ in range(m)]
                      for _ in range(m)])
    else:
        r = rng.randint(0, m)
        X = np.array([[rng.choice((0.0, 1.0, rng.uniform(-1, 1)))
                       for _ in range(r)] for _ in range(m)]).reshape(m, r)
        A = X @ X.T
    return (A + A.T) / 2


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_entry_points_are_numpys_wrappers_bit_for_bit():
    # single matrices and stacks of orders 1 to 32 and sizes 1 to 8
    rng = random.Random(73)
    for m in range(1, 33):
        for size in range(1, 9):
            S = np.array([symmetric(rng, m) for _ in range(size)])
            assert_same_bits(linalg._eigh(S), np.linalg.eigh(S))
            assert_same_bits([linalg._eigvalsh(S)], [np.linalg.eigvalsh(S)])
            M = S[0]
            assert_same_bits(linalg._eigh(M), np.linalg.eigh(M))
            assert_same_bits([linalg._eigvalsh(M)], [np.linalg.eigvalsh(M)])


@pytest.mark.parametrize("shape", [(3, 3), (2, 4, 4)])
def test_nonconvergence_raises_as_numpys_wrappers_do(shape):
    # without the wrapper's error state the bare gufunc only warns and
    # returns NaN, which an inertia count would read as zero eigenvalues
    S = np.full(shape, np.nan)
    before = np.geterr()
    for ours, theirs in ((linalg._eigh, np.linalg.eigh),
                         (linalg._eigvalsh, np.linalg.eigvalsh)):
        with pytest.raises(np.linalg.LinAlgError):
            theirs(S)
        with pytest.raises(np.linalg.LinAlgError):
            ours(S)
    assert np.geterr() == before
