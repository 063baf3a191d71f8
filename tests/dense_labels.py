"""Arbitrary labels turned into ids that TokenSequence takes."""

import numpy as np

from lrclab.genmodels import _relabel_first_occurrence


def dense(labels):
    """Non-negative int labels relabelled as dense ids in first-occurrence
    order, as an int64 array: the first label seen becomes 0, the next new
    one 1, and so on."""
    ids = np.array(labels, dtype=np.int64)
    _relabel_first_occurrence(ids)
    return ids
