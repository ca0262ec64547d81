"""Earlier forms of package functions, kept as bitwise oracles for the
faster forms that replaced them, and tape ops that only the op-by-op
references use."""

import numpy as np

from wellcast.errors import DimensionError
from wellcast.tensor import Tensor, _record


def elu_sum(x):
    """ELU as four ufuncs, max(x, 0) + expm1(min(x, 0)): the form that
    ``tensor.elu_array`` and ``tensor.elu_inplace`` replaced."""
    return np.maximum(x, 0.0) + np.expm1(np.minimum(x, 0.0))


def transpose(a: Tensor) -> Tensor:
    """The 2-D tape op a.T; the fused kernels never transpose on the tape."""
    if a.ndim != 2:
        raise DimensionError("transpose expects a 2-D tensor")

    def bwd(g):
        return (g.T,)

    return _record((a,), a.data.T.copy(), bwd)
