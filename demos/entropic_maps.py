"""Entropic maps and their small-noise limit: the bridge slope converges to
the geometric-mean optimal-transport slope as the channel noise vanishes.

Run:  python3 demos/entropic_maps.py
"""

import numpy as np

from sinkbridge import gaussian as g
from sinkbridge import spd

# scalar model with covariances 4 and 1: the limit slope is (1/4 # 1) = 1/2
mu = g.GaussianMeasure([0.0], [[4.0]])
eta = g.GaussianMeasure([0.0], [[1.0]])
k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
bridge = g.bridge_solve(mu, eta, k)
lim = bridge.ot_limit()
print("zero-noise limit slope:", lim.slope[0, 0])

print("\n t        bridge slope     gap to limit")
# rescaling the noise by t only divides the bridge's singular values by t,
# so the whole sweep reuses one decomposition
for t in [10.0, 1.0, 0.1, 0.01, 0.001]:
    fwd = bridge.rescaled(t).forward
    print(f"{t:<8}  {fwd.slope[0, 0]:.8f}      {abs(fwd.slope[0, 0] - lim.slope[0, 0]):.3e}")

# the barycentric-projection identity chi' Sigma chi = grad @ chi holds
# exactly, in any dimension and for non-commuting covariances
rng = np.random.default_rng(3)
q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
mu3 = g.GaussianMeasure(np.zeros(3), spd.symmetrize((q1 * [0.5, 1.0, 2.0]) @ q1.T))
eta3 = g.GaussianMeasure(np.ones(3), spd.symmetrize((q2 * [0.8, 1.0, 1.4]) @ q2.T))
k3 = g.LinearGaussianKernel(np.zeros(3), np.eye(3), 0.5 * np.eye(3))
bridge3 = g.bridge_solve(mu3, eta3, k3)
fwd3 = bridge3.forward
chi = k3.chi
res = chi.T @ fwd3.noise_cov @ chi - g.entropic_map_gradient(fwd3) @ chi
print("\n3x3 barycentric identity residual:", np.linalg.norm(res, 2))

# a 3x3 limit map transports mu onto eta exactly
lim3 = bridge3.ot_limit()
image = g.GaussianMeasure(
    lim3.intercept + lim3.slope @ mu3.mean, lim3.slope @ mu3.cov @ lim3.slope.T
)
print("3x3 limit transport W2 error:", g.gelbrich_w2(image, eta3))
