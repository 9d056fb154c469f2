"""One pool of bad argument values, shared by the argument-rule tests.

Each value is wrong for some rule of `cavityq.errors`: it is not a number,
not finite, too large for an int32 or for a float, or a numpy form that a
rule might mistake for a Python number. None of them is an object of a
cavityq class, so every one is refused where such an object is required.
"""

import math

import numpy as np

NOT_NUMBERS = [True, False, np.True_, "", "x", "2", [1.0, 0.0], [[1.0], [0.0, 1.0]],
               {}, {"a": 1}, None]
EDGE_REALS = [0.0, -0.0, 1e308, math.nan, math.inf, -math.inf]
BIG_INTEGERS = [2**31, 10**13, 10**400]
NUMPY_FORMS = [np.array(2.0), np.array(3), np.float64(2.0), np.int64(3), np.complex128(1j)]

BAD_VALUES = NOT_NUMBERS + EDGE_REALS + BIG_INTEGERS + NUMPY_FORMS
