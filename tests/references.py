"""Reference implementations that tests compare the library against.

No command, criterion or demo needs these, so they live beside the tests.
"""

from sinkbridge import gaussian as g
from sinkbridge import spd


def varpi_pair(mu, eta, k):
    """Riccati parameters of the two conditional-covariance flows, as dense matrices.

    Returns (v^{-1/2} (chi u chi')^{-1} v^{-1/2}, u^{-1/2} (chi' v chi)^{-1} u^{-1/2}),
    assembled from the bridge's one SVD as p diag(lam) p' and r diag(lam) r'.
    Their condition number is cond(v^{1/2} chi u^{1/2})^2; the library hands
    the Riccati layer ``BridgeFactors.spectra`` instead, which carries no such loss.
    """
    f = g.bridge_solve(mu, eta, k).factors
    return g._congruent(f.p, f.lam), g._congruent(f.r, f.lam)


def geometric_mean(u, v):
    """Geometric mean u # v of two SPD matrices.

    Computed as v^{1/2} (v^{-1/2} u v^{-1/2})^{1/2} v^{1/2}; symmetric in its
    arguments, and equal to (uv)^{1/2} when u and v commute.
    """
    u = spd.require_spd(u)
    v_half, v_inv_half = spd.sqrt_pair(v)
    spd.check_same_dim(u, v_half)
    inner = spd.principal_sqrt(v_inv_half @ u @ v_inv_half)
    return spd.symmetrize(v_half @ inner @ v_half)
