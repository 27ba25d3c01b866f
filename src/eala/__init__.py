"""Entropy-matched linear attention with an exact softmax oracle.

The package is organized around one comparison: `oracle` computes softmax
attention and its entropy exactly (quadratic cost, trusted), `core`
replaces it with an affine weight family whose temperature is solved in
closed form from key moments (linear cost), and the harness modules
measure how far apart the two land.
"""

from .bench import (BenchRecord, BenchResourceError, allocation_model,
                    bench_sweep, fit_loglog_slope)
from .core import (KeyMoments, center_keys, eala_attention, eala_forward_linear,
                   eala_forward_quadratic, eala_weights, key_moments, theta_star)
from .fidelity import FidelityReport, compare
from .mha import MhaParams, mha_forward, mha_init
from .numerics import gaussian_matrix, prng_stream, uniform_stream
from .oracle import (AttnResult, KlDecomposition, bisection_theta, exact_attention,
                     kl_decomposition, kl_divergence, linear_family_entropy,
                     strict_concavity_check)
from .tensorio import (TensorFileError, TensorMagicError, TensorRows,
                       TensorTruncationError, TensorVersionError, read_tensor,
                       write_tensor)
from .workload import WorkloadSpec, gen_workload, gen_workload_raw

__version__ = "0.1.0"

__all__ = [
    "AttnResult", "BenchRecord", "BenchResourceError", "FidelityReport",
    "KeyMoments", "KlDecomposition", "MhaParams", "TensorFileError",
    "TensorMagicError", "TensorRows", "TensorTruncationError", "TensorVersionError",
    "WorkloadSpec", "allocation_model", "bench_sweep", "bisection_theta",
    "center_keys", "compare", "eala_attention", "eala_forward_linear",
    "eala_forward_quadratic", "eala_weights", "exact_attention", "fit_loglog_slope",
    "gaussian_matrix", "gen_workload", "gen_workload_raw", "key_moments",
    "kl_decomposition", "kl_divergence", "linear_family_entropy", "mha_forward",
    "mha_init", "prng_stream", "read_tensor", "strict_concavity_check",
    "theta_star", "uniform_stream", "write_tensor",
]
