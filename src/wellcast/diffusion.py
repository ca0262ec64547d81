"""Denoising-diffusion machinery.

Forward chain
    q(x_n | x_{n-1}) = N(sqrt(1 - beta_n) x_{n-1}, beta_n I),  beta strictly increasing
with the closed-form marginal
    x_n = sqrt(abar_n) x_0 + sqrt(1 - abar_n) eps,   abar_n = prod_{i<=n} (1 - beta_i).

Reverse chain (ancestral sampling, one step)
    x_{n-1} = (x_n - beta_n / sqrt(1 - abar_n) eps_hat) / sqrt(alpha_n)
              + sqrt(btilde_n) z
where btilde_n = (1 - abar_{n-1}) / (1 - abar_n) beta_n and z = 0 at n = 1.

The noise predictor is trained on
    || eps - eps_hat(sqrt(abar_n) x_0 + sqrt(1 - abar_n) eps, h, n) ||
with the norm selectable between squared L2 and L1.

Sampling and training evaluate the same network two ways.  Training goes
through ``EpsilonNet.forward`` on the tape, because the loss needs
gradients for every weight, including the rows of w1 that read h and the
step embedding.  A reverse rollout conditions all N steps on one h and
needs no gradient, so ``EpsilonNet.conditioned`` splits w1 into its x, h
and embedding row blocks and hoists what the loop cannot change: h @ W1h
once per rollout and the [N, hidden] table embed @ W1e + b1 once.  Each
reverse step is then x_n @ W1x plus those two rows, two ELUs and two small
matmuls on plain arrays.  Splitting the first matmul changes its rounding
only (relative drift of order 1e-15 against ``forward``).

The rollout runs on buffers.  ``predict`` keeps its two [B, hidden]
activations, one ELU scratch array and b2 tiled to [B, hidden] across
calls, and writes each layer into them: ``np.dot(..., out=)``, the first
layer's bias rows added in place in the order
(x_n @ W1x + h @ W1h) + table[n - 1], b2 as a same-shape add (half the
cost of a broadcast row add), and the three-ufunc ELU of
``tensor.elu_inplace``.  Only the [B, D] output is a fresh array, and
``sample`` writes each posterior update over it.  The update's
coefficients 1/sqrt(alpha_n), beta_n/sqrt(1 - abar_n) and sqrt(btilde_n)
are computed as arrays once per rollout; elementwise sqrt and division
round as their scalar forms do.  Every float operation is the allocating
form's, in its order, so samples keep its bits.  ``reverse_step`` keeps
the tape-path ``forward`` as the single-step reference; it and ``sample``
share one posterior-mean update.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError
from .tensor import (Tensor, absolute, add, concat, constant, elu, elu_inplace,
                     matmul, mul, no_grad, parameter, sub, take_rows, tsum,
                     zeros_parameter)


@dataclass(frozen=True)
class NoiseSchedule:
    """Diffusion constants, all indexed so position i holds step n = i + 1.

    Conventions: abar_0 = 1, hence beta_tilde at n = 1 is exactly 0.
    """

    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    alpha_bar_prev: np.ndarray
    beta_tilde: np.ndarray
    beta_start: float
    beta_end: float

    @property
    def n_steps(self) -> int:
        return len(self.beta)


def schedule_from_betas(beta, beta_start=None, beta_end=None) -> NoiseSchedule:
    """Derive every schedule array from a strictly increasing beta sequence."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.ndim != 1 or beta.size < 1:
        raise ParameterError("beta must be a non-empty 1-D sequence")
    if np.any(beta <= 0.0) or np.any(beta >= 1.0):
        raise ParameterError("every beta must lie strictly inside (0, 1)")
    if np.any(np.diff(beta) <= 0.0):
        raise ParameterError("beta must be strictly increasing")
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    alpha_bar_prev = np.concatenate([[1.0], alpha_bar[:-1]])
    beta_tilde = (1.0 - alpha_bar_prev) / (1.0 - alpha_bar) * beta
    return NoiseSchedule(
        beta=beta, alpha=alpha, alpha_bar=alpha_bar,
        alpha_bar_prev=alpha_bar_prev, beta_tilde=beta_tilde,
        beta_start=float(beta_start if beta_start is not None else beta[0]),
        beta_end=float(beta_end if beta_end is not None else beta[-1]),
    )


def build_schedule(n_steps: int = 100, beta_start: float = 1e-4,
                   beta_end: float = 0.1) -> NoiseSchedule:
    """Linear schedule beta_n = beta_start + (n-1)/(N-1) (beta_end - beta_start)."""
    if n_steps < 1:
        raise ParameterError("n_steps must be >= 1")
    if not (0.0 < beta_start < beta_end < 1.0):
        raise ParameterError("need 0 < beta_start < beta_end < 1")
    if n_steps == 1:
        beta = np.array([beta_start])
    else:
        beta = np.linspace(beta_start, beta_end, n_steps)
    return schedule_from_betas(beta, beta_start=beta_start, beta_end=beta_end)


def _check_step(n: int, sched: NoiseSchedule) -> int:
    n = int(n)
    if not 1 <= n <= sched.n_steps:
        raise ParameterError(f"diffusion step {n} outside 1..{sched.n_steps}")
    return n


def forward_sample(x0: np.ndarray, n, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Noised sample sqrt(abar_n) x0 + sqrt(1 - abar_n) eps.

    n may be a scalar step or a per-row integer array matching x0's rows.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    n_arr = np.asarray(n)
    if n_arr.ndim == 0:
        abar = sched.alpha_bar[_check_step(n_arr, sched) - 1]
        return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps
    if np.any(n_arr < 1) or np.any(n_arr > sched.n_steps):
        raise ParameterError("diffusion step outside schedule range")
    abar = sched.alpha_bar[n_arr - 1][:, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def posterior_params(xn: np.ndarray, x0: np.ndarray, n: int,
                     sched: NoiseSchedule) -> tuple:
    """Mean and variance of q(x_{n-1} | x_n, x_0).

    mean = sqrt(alpha_n)(1 - abar_{n-1})/(1 - abar_n) x_n
         + sqrt(abar_{n-1}) beta_n /(1 - abar_n) x_0
    var  = beta_tilde_n  (zero at n = 1 by the abar_0 = 1 convention)
    """
    i = _check_step(n, sched) - 1
    denom = 1.0 - sched.alpha_bar[i]
    coef_xn = np.sqrt(sched.alpha[i]) * (1.0 - sched.alpha_bar_prev[i]) / denom
    coef_x0 = np.sqrt(sched.alpha_bar_prev[i]) * sched.beta[i] / denom
    mean = coef_xn * np.asarray(xn, dtype=np.float64) + coef_x0 * np.asarray(x0, dtype=np.float64)
    return mean, float(sched.beta_tilde[i])


def sinusoidal_embedding(n_steps: int, dim: int) -> np.ndarray:
    """Step-index embedding table; row i encodes step n = i + 1."""
    if dim % 2 != 0:
        raise ParameterError("embedding dimension must be even")
    pos = np.arange(1, n_steps + 1, dtype=np.float64)[:, None]
    freq = np.exp(-np.log(10000.0) * np.arange(0, dim, 2) / dim)[None, :]
    table = np.empty((n_steps, dim))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)
    return table


class EpsilonNet:
    """Noise predictor conditioned on the recurrent state and the step index.

    Input is the concatenation [x_n, h, embed(n)]; two ELU hidden layers of
    equal width feed a linear output matching the data dimension, so the
    prediction always has the shape of the injected noise.
    """

    def __init__(self, data_dim: int, cond_dim: int, n_steps: int,
                 hidden: int = 128, embed_dim: int = 64, *,
                 rng: np.random.Generator):
        self.data_dim = int(data_dim)
        self.cond_dim = int(cond_dim)
        self.n_steps = int(n_steps)
        self.hidden = int(hidden)
        self.embed_dim = int(embed_dim)
        self.embed_table = sinusoidal_embedding(n_steps, embed_dim)
        in_dim = self.data_dim + self.cond_dim + embed_dim
        self.w1 = parameter(rng, (in_dim, hidden))
        self.b1 = zeros_parameter((hidden,))
        self.w2 = parameter(rng, (hidden, hidden))
        self.b2 = zeros_parameter((hidden,))
        self.w3 = parameter(rng, (hidden, self.data_dim))
        self.b3 = zeros_parameter((self.data_dim,))

    def params(self) -> list:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def forward(self, x_n, h, n) -> Tensor:
        """x_n: [B, D] array, h: [B, cond] array or Tensor, n: step or per-row steps."""
        x_n = np.atleast_2d(np.asarray(x_n, dtype=np.float64))
        batch = x_n.shape[0]
        if x_n.shape[1] != self.data_dim:
            raise ContractError(
                f"data dimension {x_n.shape[1]} does not match network ({self.data_dim})")
        n_arr = np.atleast_1d(np.asarray(n, dtype=np.intp))
        if n_arr.size == 1:
            n_arr = np.full(batch, n_arr[0], dtype=np.intp)
        emb = self.embed_table[n_arr - 1]
        h_t = h if isinstance(h, Tensor) else constant(np.atleast_2d(h))
        if h_t.shape[0] == 1 and batch > 1:
            # share one conditioning row across the batch
            h_t = take_rows(h_t, np.zeros(batch, dtype=np.intp))
        if h_t.shape[1] != self.cond_dim:
            raise ContractError(
                f"conditioning width {h_t.shape[1]} does not match network ({self.cond_dim})")
        inp = concat([constant(x_n), h_t, constant(emb)], axis=1)
        z1 = elu(add(matmul(inp, self.w1), self.b1))
        z2 = elu(add(matmul(z1, self.w2), self.b2))
        return add(matmul(z2, self.w3), self.b3)

    def conditioned(self, h):
        """No-grad predictor for one conditioning: ``predict(x_n, n)``.

        h is a [B, cond] array or Tensor, or one row shared by the batch.
        ``predict`` takes a [B, D] array and a scalar step n and returns
        ``forward(x_n, h, n).data`` up to the rounding of the split first
        layer, without touching the tape, as a fresh array; its hidden
        activations reuse buffers kept between calls.
        """
        h = np.atleast_2d(np.asarray(h.data if isinstance(h, Tensor) else h,
                                     dtype=np.float64))
        if h.shape[1] != self.cond_dim:
            raise ContractError(
                f"conditioning width {h.shape[1]} does not match network ({self.cond_dim})")
        d, c = self.data_dim, self.cond_dim
        w1 = self.w1.data
        w1x = w1[:d]
        base = h @ w1[d:d + c]
        table = self.embed_table @ w1[d + c:] + self.b1.data
        w2, b2 = self.w2.data, self.b2.data
        w3, b3 = self.w3.data, self.b3.data
        bufs = ()

        def predict(x_n: np.ndarray, n: int) -> np.ndarray:
            nonlocal bufs
            if not 1 <= n <= self.n_steps:
                raise ParameterError(f"diffusion step {n} outside 1..{self.n_steps}")
            if not bufs or len(bufs[0]) != len(x_n):
                # the two [B, hidden] activations, the ELU scratch and b2's block
                shape = (len(x_n), self.hidden)
                bufs = (np.empty(shape), np.empty(shape), np.empty(shape),
                        np.broadcast_to(b2, shape).copy())
            z1, z2, scratch, b2_block = bufs
            # (x_n @ W1x + base) + row: the allocating form's order, same bits
            np.dot(x_n, w1x, out=z1)
            z1 += base
            z1 += table[n - 1]
            elu_inplace(z1, scratch)
            np.dot(z1, w2, out=z2)
            z2 += b2_block
            elu_inplace(z2, scratch)
            return z2 @ w3 + b3

        return predict


def ddpm_loss(x0, h_prev, net: EpsilonNet, sched: NoiseSchedule,
              rng: np.random.Generator, norm: str = "l1",
              n_override=None, eps_override=None) -> Tensor:
    """Noise-prediction loss for one or more timesteps.

    Draws n ~ Uniform{1..N} and eps ~ N(0, I) per row, noises x0 in closed
    form and scores the predictor against the injected noise:
    squared L2 or element-sum L1, summed over rows.  The override arguments
    let tests inject the randomness deterministically.
    """
    if norm not in ("l1", "l2"):
        raise ParameterError(f"norm must be 'l1' or 'l2', got {norm!r}")
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    batch, dim = x0.shape
    if dim != net.data_dim:
        raise ContractError(
            f"data dimension {dim} does not match network ({net.data_dim})")
    n = (np.atleast_1d(np.asarray(n_override, dtype=np.intp)) if n_override is not None
         else rng.integers(1, sched.n_steps + 1, size=batch))
    eps = (np.atleast_2d(np.asarray(eps_override, dtype=np.float64))
           if eps_override is not None else rng.standard_normal((batch, dim)))
    x_n = forward_sample(x0, n, eps, sched)
    pred = net.forward(x_n, h_prev, n)
    resid = sub(constant(eps), pred)
    if norm == "l2":
        return tsum(mul(resid, resid))
    return tsum(absolute(resid))


def _update_coefs(sched: NoiseSchedule) -> list:
    """Per-step (1/sqrt(alpha_n), beta_n/sqrt(1 - abar_n), sqrt(btilde_n)),
    position i for step n = i + 1.  Elementwise sqrt and division round as
    their scalar forms do."""
    return list(zip(1.0 / np.sqrt(sched.alpha),
                    sched.beta / np.sqrt(1.0 - sched.alpha_bar),
                    np.sqrt(sched.beta_tilde)))


def _posterior_update(xn: np.ndarray, eps_hat: np.ndarray, z, coefs: tuple,
                      scratch: np.ndarray) -> np.ndarray:
    """x_{n-1} = pref * (x_n - eps_coef * eps_hat) + sd * z, written over
    eps_hat with sd * z in scratch; the one copy of the update."""
    pref, eps_coef, sd = coefs
    eps_hat *= eps_coef
    np.subtract(xn, eps_hat, out=eps_hat)
    eps_hat *= pref
    eps_hat += np.multiply(z, sd, out=scratch)
    return eps_hat


def reverse_step(xn, h_prev, n: int, net: EpsilonNet, sched: NoiseSchedule,
                 z) -> np.ndarray:
    """One reverse-chain update from x_n to x_{n-1}, through ``net.forward``.

    The caller supplies z ~ N(0, I) for n > 1 and z = 0 at n = 1; ``sample``
    enforces the final-step branch.  ``sample`` runs the same update on the
    hoisted predictor; this single step is its reference.
    """
    n = _check_step(n, sched)
    xn = np.asarray(xn, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    with no_grad():
        eps_hat = net.forward(np.atleast_2d(xn), h_prev, n).data
    eps_hat = eps_hat.reshape(xn.shape)
    coefs = _update_coefs(sched)[n - 1]
    return _posterior_update(xn, eps_hat, z, coefs, np.empty_like(eps_hat))


def sample(x_init, h_prev, net: EpsilonNet, sched: NoiseSchedule,
           rng: np.random.Generator | None = None, noise=None) -> np.ndarray:
    """Full reverse rollout from x_N ~ N(0, I) down to a data-space draw.

    ``noise`` optionally injects the per-step z deterministically: noise[i]
    is used at the i-th reverse step (n = N - i); the n = 1 step always uses
    z = 0.  Without it, z is drawn from ``rng``.  The network is evaluated
    through ``net.conditioned(h_prev)``, built once for the whole rollout.
    Each step writes its update over the fresh array ``predict`` returns.
    """
    x = np.asarray(x_init, dtype=np.float64)
    shape = x.shape
    x = np.atleast_2d(x)
    big_n = sched.n_steps
    if noise is None and rng is None and big_n > 1:
        raise ParameterError("either rng or injected noise is required for N > 1")
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64).reshape(len(noise), *x.shape)
    predict = net.conditioned(h_prev)
    coefs = _update_coefs(sched)
    zeros = np.zeros(x.shape)  # z at n = 1
    scratch = np.empty(x.shape)
    for i, n in enumerate(range(big_n, 0, -1)):
        if n == 1:
            z = zeros
        elif noise is not None:
            z = noise[i]
        else:
            z = rng.standard_normal(out=scratch)
        x = _posterior_update(x, predict(x, n), z, coefs[n - 1], scratch)
    return x.reshape(shape)
