"""Probabilistic multi-well production forecasting.

Two generative forecasters over multivariate production panels: an
autoregressive diffusion model conditioned on a GRU state, and a
sparse-attention encoder-decoder transformer with a Gaussian head (plus a
dense-attention baseline).  Quantile forecasts come from sorted sample
ensembles; evaluation reports MSE and MASE.
"""

__version__ = "0.1.0"

from .data import (SeriesPanel, SyntheticFieldConfig, generate_synthetic,
                   load_csv, save_csv, split, truncate_at_breakthrough)
from .diffusion import (EpsilonNet, NoiseSchedule, build_schedule, ddpm_loss,
                        forward_sample, posterior_params, reverse_step, sample)
from .evaluation import (ForecastEnsemble, MetricsReport, best_quantile,
                         ensemble_moments, mase, mse, quantile_path)
from .seqmodels import (InformerModel, VanillaTransformer, gaussian_nll,
                        sample_paths)
from .tensor import Tensor, backward, no_grad
from .timegrad import GRUCell, TimeGradModel, fit, forecast, normalize_window

__all__ = [
    "SeriesPanel", "SyntheticFieldConfig", "generate_synthetic", "load_csv",
    "save_csv", "split", "truncate_at_breakthrough",
    "EpsilonNet", "NoiseSchedule", "build_schedule", "ddpm_loss",
    "forward_sample", "posterior_params", "reverse_step", "sample",
    "ForecastEnsemble", "MetricsReport", "best_quantile", "ensemble_moments",
    "mase", "mse", "quantile_path",
    "InformerModel", "VanillaTransformer", "gaussian_nll", "sample_paths",
    "Tensor", "backward", "no_grad",
    "GRUCell", "TimeGradModel", "fit", "forecast", "normalize_window",
]
