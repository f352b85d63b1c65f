"""Plain reference implementations that the package's fast routes are tested against.

They work on masks as bitstrings, without integer arithmetic: an enumerator
that filters every string of 0/1 characters, and the synthetic quality table
as a dict from bitstring to base quality, the form of a config's
``quality.table``. ``min_max_adapt_params`` is the Q agents' reference for
adapting alpha and epsilon, written with the builtins ``min`` and ``max``.
"""

import math
from itertools import compress, product

from edgerecon.environment import (DEFAULT_QUALITY_CEILING, DEFAULT_QUALITY_CURVE,
                                   DEFAULT_QUALITY_MIDPOINT, MIN_VIEWS, QualitySpec)


def bitstring_subsets(n_cameras: int, k_min: int, k_max: int) -> list[str]:
    """Every bitstring of n_cameras characters with k_min..k_max ones, in order."""
    masks = ("".join(chars) for chars in product("01", repeat=n_cameras))
    return [mask for mask in masks if k_min <= mask.count("1") <= k_max]


def synthetic_quality_table(n_cameras: int, camera_weights=None,
                            ceiling: float = DEFAULT_QUALITY_CEILING,
                            curve: float = DEFAULT_QUALITY_CURVE,
                            midpoint: float = DEFAULT_QUALITY_MIDPOINT) -> dict:
    """The synthetic base-quality table, one entry per bitstring of MIN_VIEWS or more cameras."""
    spec = QualitySpec(camera_weights=camera_weights, ceiling=ceiling, curve=curve, midpoint=midpoint)
    spec.validate()
    camera_weights = spec.synthetic_weights(n_cameras)
    table = {}
    for mask in bitstring_subsets(n_cameras, MIN_VIEWS, n_cameras):
        s = sum(compress(camera_weights, map(int, mask)))
        table[mask] = ceiling / (1.0 + math.exp(-curve * (s - midpoint)))
    return table


def min_max_adapt_params(alpha: float, epsilon: float, params, degraded: bool):
    """Boost epsilon and alpha on degradation, decay them otherwise, clamped by min/max."""
    if degraded:
        epsilon = min(epsilon * params.eta_inc, params.eps_max)
        alpha = min(alpha * params.lambda_inc, params.alpha_max)
    else:
        epsilon = max(epsilon * params.eta_dec, params.eps_min)
        alpha = max(alpha * params.lambda_dec, params.alpha_min)
    return alpha, epsilon
