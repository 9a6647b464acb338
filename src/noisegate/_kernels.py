"""Edit distance and the median filter, in Python, numpy and scipy.

The median filter's whole windows come from scipy's median filter; only the
shrinking windows at the two edges are taken one by one.
"""

from itertools import chain

import numpy as np
from scipy.ndimage import median_filter

# The one kernel lane; the benchmark's machine line (perfbench/run.py) prints it.
BACKEND = "pure"


def levenshtein(a: str, b: str) -> int:
    """Minimum single-character edits (insert/delete/substitute) turning a into b."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def sliding_median(values: np.ndarray, window: int) -> np.ndarray:
    """Median filter with symmetric shrinking windows at the edges.

    At index i the window half-width is min(window // 2, i, n - 1 - i), so
    every window has odd length and the median stays an integer.
    """
    x = np.asarray(values, dtype=np.int16)
    n = x.size
    half = window // 2
    out = np.empty(n, dtype=np.int16)
    lo = min(half, n)
    hi = max(n - half, 0)
    if hi > lo:
        out[half : n - half] = median_filter(x, size=window)[half : n - half]
    for i in chain(range(lo), range(max(hi, lo), n)):
        k = min(half, i, n - 1 - i)
        out[i] = int(np.median(x[i - k : i + k + 1]))
    return out
