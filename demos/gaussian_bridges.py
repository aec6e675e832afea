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
pushed = g.push_through(mu, fwd)
print("push-forward of mu:", pushed.mean[0], pushed.cov[0, 0], "(target -1, 1)")

# the Sinkhorn recursion drives conditional covariances and marginal means
# to the bridge values
states = g.sinkhorn_run(bridge, 20)
print("\n n   tau_n        m_n")
for s in states[:8]:
    print(f"{s.n:>2}   {s.tau_n[0, 0]:.8f}   {s.m_n[0]:+.8f}")
even = [s for s in states if s.n % 2 == 0][-1]
print("terminal even covariance vs bridge:", abs(even.tau_n[0, 0] - fwd.noise_cov[0, 0]))

# entropy gap to the bridge, against the two-step and improved envelopes
spec = CurvatureSpec.gaussian(mu, eta)
eps = bounds.eps_lg(k, spec)
ph = bounds.phi(eps)
gaps = g.bridge_gaps(bridge, states)
print(f"\neps = {eps}, pair rate = {1/(1+1/eps):.3f}, phi rate^2 = {(1+ph)**-2:.6f}")
print(" n   gap              (1+1/eps)^-(n/2)        (1+phi)^-(n-2)")
for n in [0, 2, 4, 8, 12]:
    pair = (1 + 1 / eps) ** -(n // 2) * gaps[0]
    impr = (1 + ph) ** -(n - 2) * gaps[0] if n >= 2 else float("inf")
    print(f"{n:>2}   {gaps[n]:.6e}     {pair:.6e}        {impr:.6e}")

# exact divergences between Gaussians, no sampling anywhere
print("\nKL(eta | pi_0) =", g.gaussian_kl(eta, g.GaussianMeasure(states[0].m_n, states[0].sigma_pi_n)))
print("W2(eta, pi_0)  =", g.gelbrich_w2(eta, g.GaussianMeasure(states[0].m_n, states[0].sigma_pi_n)))
