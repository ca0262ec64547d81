"""Earlier forms of package functions, kept as bitwise oracles for the
faster forms that replaced them."""

import numpy as np


def elu_sum(x):
    """ELU as four ufuncs, max(x, 0) + expm1(min(x, 0)): the form that
    ``tensor.elu_array`` and ``tensor.elu_inplace`` replaced."""
    return np.maximum(x, 0.0) + np.expm1(np.minimum(x, 0.0))
