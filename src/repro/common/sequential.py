"""Fuzzy sequential-offset comparison (§9.1).

The cache manager's read-ahead predictor masks the lowest 7 bits when
comparing a request's offset with the previous request's end, so a read
starting within 128 bytes still counts as sequential.  The same
comparison is used on the analysis side to classify access patterns
(§6.2), so the helper lives in the dependency-free bottom layer where
both the kernel (:mod:`repro.nt.cache.readahead`) and the analysis
(:mod:`repro.analysis.sessions`) can share one definition.
"""

from __future__ import annotations

# The cache manager masks the lowest 7 bits when comparing offsets, so a
# read starting within 128 bytes of the previous end still counts as
# sequential (§9.1).
SEQUENTIAL_FUZZ_MASK = ~0x7F


def fuzzy_sequential(previous_end, offset):
    """True when ``offset`` continues ``previous_end`` under the 7-bit mask.

    Takes ints, or equal-length int64 numpy arrays for the elementwise
    comparison (a bool array) the instance table's run and pattern
    columns use.
    """
    return (offset & SEQUENTIAL_FUZZ_MASK) == (previous_end & SEQUENTIAL_FUZZ_MASK)
