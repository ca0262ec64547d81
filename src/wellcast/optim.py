"""AdamW with decoupled weight decay.

The decay multiplies parameters by (1 - lr*weight_decay) *before* the
adaptive update, so lr = 0 is an exact fixed point and a zero gradient with
nonzero decay shrinks weights by exactly that factor.

The moments of consecutive parameters share flat blocks of at most
``BLOCK_ELEMENTS`` values (a larger parameter gets a block of its own),
cut from one zeroed array per moment; ``m[i]`` and ``v[i]`` are views of
them shaped like parameter i.  A large zeroed array that comes as fresh
pages takes memory only once written, so an optimizer that never steps
holds almost no moment memory, but only while ``np.zeros`` gets such
pages.  Once glibc's heap has grown, it serves the moments from there
instead: in the informer training benchmark, after its training chunks,
each further ``AdamW`` over the model's 236,000 values (two moments of
1.9 MB) raised RSS by 2.9 to 3.35 MB.  A step updates each
run of a block's consecutive parameters that have gradients
at once: one concatenate gathers their gradients, and a dozen in-place
vector ops over the run give every element the arithmetic of the
one-array-at-a-time update, so results are bit-identical to it.  A block,
and so each temporary of a step, stays under 128 kB, where glibc stops
serving arrays from its heap: with one block for every parameter a vanilla
training window was about 8% slower.  The temporaries are made per step
rather than kept, since kept ones raised timegrad training's peak RSS by
about 0.5 MB.
"""

from itertools import groupby

import numpy as np

from .checkpoint import read, read_int
from .errors import FormatError, ParameterError, TrainingError
from .tensor import Tensor

BLOCK_ELEMENTS = 15_000


class AdamW:
    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999,
                 epsilon: float = 1e-8, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.weight_decay = float(weight_decay)
        self._check_hyper(ParameterError)
        self.step_count = 0
        self.m, self.v = [], []
        # (first parameter index, element offsets of its parameters, m, v)
        self._blocks = []
        total = sum(p.size for p in self.params)
        m_all, v_all = np.zeros(total), np.zeros(total)
        first = start = 0
        while first < len(self.params):
            offsets = [0]
            for p in self.params[first:]:
                if len(offsets) > 1 and offsets[-1] + p.size > BLOCK_ELEMENTS:
                    break
                offsets.append(offsets[-1] + p.size)
            stop = start + offsets[-1]
            m, v, start = m_all[start:stop], v_all[start:stop], stop
            for k, p in enumerate(self.params[first:first + len(offsets) - 1]):
                self.m.append(m[offsets[k]:offsets[k + 1]].reshape(p.shape))
                self.v.append(v[offsets[k]:offsets[k + 1]].reshape(p.shape))
            self._blocks.append((first, offsets, m, v))
            first += len(offsets) - 1

    def _check_hyper(self, error) -> None:
        # negated comparisons, so nan fails them too; an infinite lr or
        # decay makes every parameter non-finite at the first step
        if not 0.0 <= self.lr < np.inf:
            raise error(f"learning rate must be finite and nonnegative, "
                        f"got {self.lr}")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise error("betas must lie in (0, 1)")
        if not self.epsilon > 0:
            raise error("epsilon must be positive")
        if not 0.0 <= self.weight_decay < np.inf:
            raise error(f"weight_decay must be finite and nonnegative, "
                        f"got {self.weight_decay}")

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """One update. Parameters whose grad is None are left untouched, and
        so are their moments.  A non-finite gradient, or one whose square
        overflows, raises TrainingError naming the first such parameter,
        before its run is updated."""
        self.step_count += 1
        t = self.step_count
        b1, b2, lr = self.beta1, self.beta2, self.lr
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        decay = 1.0 - lr * self.weight_decay
        for first, offsets, m_block, v_block in self._blocks:
            k = 0
            block = self.params[first:first + len(offsets) - 1]
            for has_grad, run in groupby(block, lambda p: p.grad is not None):
                run = list(run)
                lo, hi = offsets[k], offsets[k + len(run)]
                if has_grad:
                    g = np.concatenate([p.grad.reshape(-1) for p in run])
                    upd = g * (1.0 - b1)
                    with np.errstate(over="ignore"):
                        g *= g  # g is spent from here on: reuse it
                    finite = np.isfinite(g)
                    if not finite.all():
                        r = next(r for r in range(len(run)) if not finite[
                            offsets[k + r] - lo:offsets[k + r + 1] - lo].all())
                        what = ("non-finite gradient"
                                if not np.isfinite(run[r].grad).all() else
                                "gradient that overflows when squared")
                        raise TrainingError(
                            f"{what} at parameter {first + k + r} on step {t}")
                    m, v = m_block[lo:hi], v_block[lo:hi]
                    m *= b1
                    m += upd
                    v *= b2
                    g *= 1.0 - b2
                    v += g
                    np.divide(m, bc1, out=upd)
                    upd *= lr  # lr * m_hat
                    np.divide(v, bc2, out=g)
                    np.sqrt(g, out=g)
                    g += self.epsilon
                    upd /= g
                    for r, p in enumerate(run):
                        if self.weight_decay:
                            p.data *= decay
                        p.data -= upd[offsets[k + r] - lo:
                                      offsets[k + r + 1] - lo].reshape(p.shape)
                k += len(run)

    def state_records(self) -> dict:
        """Moment arrays and counters as flat named records for checkpoints."""
        rec = {
            "opt/step": np.array([float(self.step_count)]),
            "opt/hyper": np.array([self.lr, self.beta1, self.beta2,
                                   self.epsilon, self.weight_decay]),
        }
        for i in range(len(self.params)):
            rec[f"opt/m/{i}"] = self.m[i]
            rec[f"opt/v/{i}"] = self.v[i]
        return rec

    def load_state_records(self, records: dict) -> None:
        """Set the counter, hyperparameters and moments from ``records``.
        A first moment that is not finite, or a second moment that is not
        finite and nonnegative, raises FormatError before anything is set:
        no step makes one, and stepping on one freezes or poisons its
        parameter."""
        moments = [(read(records, f"opt/m/{i}", p.shape),
                    read(records, f"opt/v/{i}", p.shape))
                   for i, p in enumerate(self.params)]
        for i, (m, v) in enumerate(moments):
            for name, ok, expected in (  # negated tests: nan fails both
                    (f"opt/m/{i}", np.isfinite(m), "finite"),
                    (f"opt/v/{i}", (v >= 0.0) & (v < np.inf),
                     "finite and >= 0")):
                if not ok.all():
                    k = int(np.argmin(ok.reshape(-1)))  # the first failure
                    raise FormatError(
                        f"record {name!r} entry {k} is "
                        f"{float(records[name].reshape(-1)[k])}, "
                        f"expected {expected}")
        self.step_count = read_int(records, "opt/step", 0, (1,), count=True)
        self.lr, self.beta1, self.beta2, self.epsilon, self.weight_decay = (
            float(h) for h in read(records, "opt/hyper", (5,)))
        self._check_hyper(lambda msg: FormatError(f"record 'opt/hyper': {msg}"))
        for i, (m, v) in enumerate(moments):
            self.m[i][...] = m
            self.v[i][...] = v
