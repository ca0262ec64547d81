"""AdamW with decoupled weight decay.

The decay multiplies parameters by (1 - lr*weight_decay) *before* the
adaptive update, so lr = 0 is an exact fixed point and a zero gradient with
nonzero decay shrinks weights by exactly that factor.
"""

import numpy as np

from .checkpoint import read
from .errors import ParameterError, TrainingError
from .tensor import Tensor


class AdamW:
    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999,
                 epsilon: float = 1e-8, weight_decay: float = 0.0):
        if not lr >= 0:  # also rejects nan
            raise ParameterError(f"learning rate must be nonnegative, got {lr}")
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ParameterError("betas must lie in (0, 1)")
        if epsilon <= 0:
            raise ParameterError("epsilon must be positive")
        if weight_decay < 0:
            raise ParameterError("weight_decay must be nonnegative")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One update. Parameters whose grad is None are left untouched."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient at parameter {i} on step {t}")
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def state_records(self, prefix: str = "opt") -> dict:
        """Moment arrays and counters as flat named records for checkpoints."""
        rec = {
            f"{prefix}/step": np.array([float(self.step_count)]),
            f"{prefix}/hyper": np.array([self.lr, self.beta1, self.beta2,
                                         self.epsilon, self.weight_decay]),
        }
        for i in range(len(self.params)):
            rec[f"{prefix}/m/{i}"] = self.m[i]
            rec[f"{prefix}/v/{i}"] = self.v[i]
        return rec

    def load_state_records(self, records: dict, prefix: str = "opt") -> None:
        self.step_count = int(read(records, f"{prefix}/step", (1,))[0])
        self.lr, self.beta1, self.beta2, self.epsilon, self.weight_decay = (
            float(h) for h in read(records, f"{prefix}/hyper", (5,)))
        for i, p in enumerate(self.params):
            self.m[i] = read(records, f"{prefix}/m/{i}", p.shape)
            self.v[i] = read(records, f"{prefix}/v/{i}", p.shape)
