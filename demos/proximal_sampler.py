"""The two-block Gibbs chain (forward channel + exact backward conditional)
contracting to its target, with the rate comparison against Sinkhorn.

Run:  python3 demos/proximal_sampler.py
"""

from sinkbridge import bounds, gaussian as g
from sinkbridge.bounds import CurvatureSpec

mu = g.GaussianMeasure([0.0], [[1.0]])
nu = g.GaussianMeasure([3.0], [[2.0]])
k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])
spec = CurvatureSpec(u_plus=[[1.0]], v_plus=[[1.0]])

a, b = bounds.proximal_rates(k, spec)
print(f"step rates: a = {a}, b = {b}")

print("\n n   W2(nu S^n, mu)   b^n W2_0        KL(nu S^n | mu)   a b^(2n-2) KL_0")
rows = bounds.proximal_trace(nu, mu, k, a, b, 10)
for n, (w2, w2_env, kl, kl_env) in enumerate(rows[1:], 1):
    print(f"{n:>2}   {w2:.6e}     {w2_env:.6e}    {kl:.6e}      {kl_env:.6e}")

# which machine contracts entropy faster per pair of half-steps depends on
# the curvature asymmetry and the noise scale
print("\n t    u+   v+   pair rate    b^2       proximal faster?")
for t, up, vp in [(1.0, 2.0, 1.0), (1.0, 1.0, 2.0), (10.0, 2.0, 1.0), (10.0, 1.0, 2.0)]:
    out = bounds.proximal_crossover(k.rescaled(t), CurvatureSpec(u_plus=[[up]], v_plus=[[vp]]))
    print(
        f"{t:<5}{up:<5}{vp:<5}{out['pair_rate']:.6f}    {out['proximal_rate_sq']:.6f}  "
        f"{out['pair_rate_below']}"
    )
