"""Small trained-model fixtures shared between unit and acceptance tests."""

from types import SimpleNamespace

import numpy as np

from wellcast import tensor as T
from wellcast.diffusion import EpsilonNet, ddpm_loss
from wellcast.optim import AdamW
from wellcast.rng import TRAIN, stream


def train_toy_net(x0_draws, sched, steps=1500, lr=2e-3, seed=11, norm="l2",
                  hidden=64):
    """Fit an EpsilonNet on a fixed pool of 1-D draws (no conditioning)."""
    rng = stream(seed, TRAIN)
    net = EpsilonNet(1, 0, sched, hidden=hidden, embed_dim=32, rng=rng)
    opt = AdamW(net.params(), lr=lr)
    pool = np.asarray(x0_draws, dtype=np.float64).reshape(-1, 1)
    batch = 64
    for _ in range(steps):
        idx = rng.integers(0, len(pool), size=batch)
        loss = ddpm_loss(pool[idx], np.zeros((batch, 0)), net, rng, norm=norm)
        opt.zero_grad()
        T.backward(loss)
        opt.step()
    return net


def as_panel(values, stride=2.0):
    """The [T, D] array ``values`` as the panel ``fit`` takes: row i stamped
    ``i * stride``, every row in the training span."""
    values = np.asarray(values, dtype=np.float64)
    return SimpleNamespace(values=values, split_index=len(values),
                           timestamps=np.arange(len(values)) * stride)
