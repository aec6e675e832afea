"""Closed-form Gaussian bridges against the Sinkhorn mean/covariance
recursion, with the entropy gap tracked against its rate envelopes.

Run:  python3 demos/gaussian_bridges.py
"""

from sinkbridge import bounds, gaussian as g
from sinkbridge.bounds import CurvatureSpec

# two Gaussians and a unit-noise channel
mu = g.GaussianMeasure([1.0], [[1.0]])
eta = g.GaussianMeasure([-1.0], [[1.0]])
k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])

# one decomposition serves the maps, the Sinkhorn flows and the gaps below
bridge = g.bridge_solve(mu, eta, k)
fwd = bridge.forward
print("bridge forward slope:", fwd.slope[0, 0])
print("bridge conditional covariance:", fwd.noise_cov[0, 0])
# the image of mu under the forward map: mean intercept + slope m, covariance slope u slope' + noise
mean, cov = fwd.intercept + fwd.slope @ mu.mean, fwd.slope @ mu.cov @ fwd.slope.T + fwd.noise_cov
print("push-forward of mu:", mean[0], cov[0, 0], "(target -1, 1)")

# the Sinkhorn recursion drives conditional covariances and marginal means
# to the bridge values
run = g.sinkhorn_run(bridge, 20)
print("\n n   tau_n        m_n")
for n in range(8):
    print(f"{n:>2}   {run.tau[n, 0, 0]:.8f}   {run.mean[n, 0]:+.8f}")
print("terminal even covariance vs bridge:", abs(run.tau[-2, 0, 0] - fwd.noise_cov[0, 0]))

# entropy gap to the bridge, against the two-step and improved envelopes
spec = CurvatureSpec.gaussian(mu, eta)
eps = bounds.eps_lg(k, spec)
ph = bounds.phi(eps)
gaps = g.bridge_gaps(bridge, run)
pair, impr = bounds.entropy_envelopes(eps, gaps)
print(f"\neps = {eps}, pair rate = {1/(1+1/eps):.3f}, phi rate^2 = {(1+ph)**-2:.6f}")
print(" n   gap              (1+1/eps)^-(n/2)        (1+phi)^-(n-2)")
for n in [0, 2, 4, 8, 12]:
    print(f"{n:>2}   {gaps[n]:.6e}     {pair[n]:.6e}        {impr[n]:.6e}")

# exact divergences between Gaussians, no sampling anywhere
pi_0 = g.GaussianMeasure(run.mean[0], run.sigma[0])
print("\nKL(eta | pi_0) =", g.gaussian_kl(eta, pi_0))
print("W2(eta, pi_0)  =", g.gelbrich_w2(eta, pi_0))
