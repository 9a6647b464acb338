import numpy as np
import pytest
from scipy.ndimage import median_filter
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate import _kernels


def dp_levenshtein(a, b):
    """Full-matrix Wagner-Fischer: d[i][j] is the distance of a[:i] and b[:j]."""
    d = [[i + j if i == 0 or j == 0 else 0 for j in range(len(b) + 1)]
         for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[len(a)][len(b)]


def naive_median(x, window):
    half = window // 2
    n = x.size
    out = []
    for i in range(n):
        k = min(half, i, n - 1 - i)
        out.append(int(np.median(x[i - k : i + k + 1])))
    return out


def test_backend_reported():
    assert _kernels.BACKEND == "pure"


@pytest.mark.parametrize("a,b,expected", [
    ("", "", 0),
    ("", "abc", 3),
    ("abc", "", 3),
    ("kitten", "sitting", 3),
    ("same", "same", 0),
])
def test_levenshtein_known_values(a, b, expected):
    assert _kernels.levenshtein(a, b) == expected


@given(st.text(max_size=30), st.text(max_size=30))
@settings(max_examples=200, deadline=None)
def test_levenshtein_matches_dp_oracle(a, b):
    d = _kernels.levenshtein(a, b)
    assert d == dp_levenshtein(a, b)
    assert d == _kernels.levenshtein(b, a)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


@given(st.text(max_size=40))
@settings(max_examples=60, deadline=None)
def test_levenshtein_identity(s):
    assert _kernels.levenshtein(s, s) == 0


@given(st.text(max_size=15), st.text(max_size=15), st.text(max_size=15))
@settings(max_examples=100, deadline=None)
def test_levenshtein_triangle_inequality(a, b, c):
    lev = _kernels.levenshtein
    assert lev(a, c) <= lev(a, b) + lev(b, c)


def test_sliding_median_hand_case():
    x = np.array([1, 2, 9, 2, 1], dtype=np.int16)
    assert list(_kernels.sliding_median(x, 3)) == [1, 2, 2, 2, 1]


@given(
    st.lists(st.integers(-32768, 32767), min_size=1, max_size=60),
    st.sampled_from([3, 5, 7, 9]),
)
@settings(max_examples=150, deadline=None)
def test_sliding_median_matches_naive(values, window):
    x = np.array(values, dtype=np.int16)
    assert list(_kernels.sliding_median(x, window)) == naive_median(x, window)


@given(
    st.lists(st.integers(-32768, 32767), min_size=1, max_size=60),
    st.sampled_from([3, 5, 7, 9]),
)
@settings(max_examples=150, deadline=None)
def test_sliding_median_backends_agree(values, window):
    """Where the window is whole, the kernel equals scipy's median filter."""
    x = np.array(values, dtype=np.int16)
    half = window // 2
    ours = _kernels.sliding_median(x, window)
    theirs = median_filter(x, size=window, mode="nearest")
    assert np.array_equal(ours[half : x.size - half], theirs[half : x.size - half])
