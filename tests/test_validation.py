"""``check_1d_int_array``: a one-element input behaves as a longer one.

A single-node request reads its one id instead of taking the two range
reductions, and the dtype test reads the dtype's kind.  A one-element input
must still raise exactly what a longer input of the same values raises (type
and message), and come back as ``int64``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.validation import check_1d_int_array

MAX = 10

#: one-element inputs the general path rejects, with its exception
REJECTED = {
    "negative": (np.array([-3]), ValueError,
                 "ids entries must be in [0, 10), found range [-3, -3]"),
    "negative_int32": (np.array([-1], dtype=np.int32), ValueError,
                       "ids entries must be in [0, 10), found range [-1, -1]"),
    "equal_to_max": (np.array([MAX]), ValueError,
                     "ids entries must be in [0, 10), found range [10, 10]"),
    "uint64_past_int64": (np.array([2 ** 63], dtype=np.uint64), ValueError,
                          f"ids entries must be in [0, 10), found range [{-2 ** 63}, {-2 ** 63}]"),
    "float": (np.array([2.0]), TypeError, "ids must be an integer array, got dtype float64"),
    "bool": (np.array([True]), TypeError, "ids must be an integer array, got dtype bool"),
    "object": (np.array([2], dtype=object), TypeError,
               "ids must be an integer array, got dtype object"),
    "two_d": (np.array([[2]]), ValueError, "ids must be 1-D, got shape (1, 1)"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_one_element_input_raises_what_the_general_path_raises(case):
    arr, exc_type, message = REJECTED[case]
    with pytest.raises(Exception) as one:
        check_1d_int_array(arr, "ids", max_value=MAX)
    assert type(one.value) is exc_type and str(one.value) == message
    if arr.ndim == 1:
        # the same value twice takes the general path and must fail identically
        with pytest.raises(Exception) as general:
            check_1d_int_array(np.repeat(arr, 2), "ids", max_value=MAX)
        assert type(general.value) is type(one.value)
        assert str(general.value) == str(one.value)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
@pytest.mark.parametrize("max_value", [None, MAX])
def test_one_element_input_comes_back_as_int64(dtype, max_value):
    for value in (0, MAX - 1):
        out = check_1d_int_array(np.array([value], dtype=dtype), "ids", max_value=max_value)
        assert out.dtype == np.int64 and out.shape == (1,) and int(out[0]) == value


def test_one_element_list_and_unbounded_negative():
    assert check_1d_int_array([7], "ids", max_value=MAX).dtype == np.int64
    # without a bound, a negative id is not the validator's business
    assert check_1d_int_array(np.array([-4]), "ids").tolist() == [-4]
