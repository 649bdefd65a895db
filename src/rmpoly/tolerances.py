"""Central numeric tolerance policy.

Every tolerance that a kernel or a theorem check consults is a constant
here, so a change in policy is a one-line edit rather than a hunt through
call sites.
"""

from __future__ import annotations

import numpy as np

#: Machine epsilon for float64, the working precision of every kernel.
EPS = float(np.finfo(np.float64).eps)

#: Relative slack granted to checks of exact theorems (interlacing,
#: perturbation bounds, algebraic identities).  A margin is scaled by the
#: largest singular value involved before comparison.
DETERMINISTIC_SLACK = 1e-10

#: One-sample Kolmogorov-Smirnov critical coefficient at the 1% level; the
#: statistic threshold for N samples is ``KS_CRITICAL_1PCT / sqrt(N)``
#: (statistical checks double it for slack).
KS_CRITICAL_1PCT = 1.63


def rank_cutoff(shape: tuple[int, int], sigma_max: float) -> float:
    """Singular values at or below this threshold are treated as zero."""
    return max(shape) * EPS * sigma_max
