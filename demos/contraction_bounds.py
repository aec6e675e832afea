"""Every explicit rate in one place: contraction coefficients, curvature
flows, correction sequences, and a rate envelope beside an observed decay.

Run:  python3 demos/contraction_bounds.py
"""

import numpy as np

from sinkbridge import bounds, gaussian as g, riccati, spd
from sinkbridge.bounds import ZERO, CurvatureSpec

k = g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]])

# two-sided curvature data: u_plus/v_plus bound Hessians below, the minus
# factors bound them above (ZERO = unbounded)
spec = CurvatureSpec(u_plus=[[2.0]], v_plus=[[2.0]], u_minus=[[1.0]], v_minus=[[1.0]])
eps = bounds.eps_lg(k, spec)
print(f"eps = {eps}, phi(eps) = {bounds.phi(eps):.10f}")
print(f"two-step rate (1+1/eps)^-1      = {1/(1+1/eps):.6f}")
print(f"improved rate (1+phi(eps))^-2   = {(1+bounds.phi(eps))**-2:.6f}")

w0, w1, w0b, w1b = bounds.varpi_family(k, spec)
# each finite member is the spectrum (lam, q) its bridge's SVD gave
print("\nflow parameters:", [repr(w) if riccati.is_infinite(w) else w.lam.tolist() for w in (w0, w1, w0b, w1b)])

sigma, tau = bounds.curvature_flow(k, spec, 5)
print("\n n   lower envelope   upper envelope")
for n in range(6):
    print(f"{n:>2}   {sigma[n][0, 0]:.8f}       {tau[n][0, 0]:.8f}")

# the correction sequences ||f|| / ||f^{1/2} r_p f^{1/2}|| along the Riccati
# iterates r_p of the upper flows from the identity, f = v_plus (even) and
# u_plus (odd); rate_table reads only their limit iota, at the fixed points
def xi(f, w):
    half = spd.principal_sqrt(f)
    return [spd.spectral_norm(f) / spd.spectral_norm(half @ r @ half) for r in riccati.iterate(w, np.eye(1), 6)]


print("\ncorrection sequences (nondecreasing, capped by iota):")
print("  xi_even:", [round(x, 6) for x in xi(spec.v_plus, w0b)])
print("  xi_odd: ", [round(x, 6) for x in xi(spec.u_plus, w1b)])
print("  iota:   ", bounds.rate_table(k, spec, 0).scalars["iota"]["value"])

# with no upper curvature bounds all corrections collapse to one
flat = CurvatureSpec(u_plus=[[2.0]], v_plus=[[2.0]], u_minus=ZERO, v_minus=ZERO)
print("  iota with ZERO minus factors:", bounds.rate_table(k, flat, 0).scalars["iota"]["value"])

# the two-step envelope beside the decay of the bridge gaps measured on the
# matching Gaussian model
mu = g.GaussianMeasure([0.0], [[2.0]])
eta = g.GaussianMeasure([1.0], [[2.0]])
spec_g = CurvatureSpec.gaussian(mu, eta)
bridge = g.bridge_solve(mu, eta, k)
gaps = g.bridge_gaps(bridge, g.sinkhorn_run(bridge, 8))
ratios = [gaps[2 * n] / gaps[0] for n in range(9)]
report = bounds.rate_table(k, spec_g, 8)
two_step = [bound for _, tag, bound in report.envelopes if tag == "two-step-entropy-rate"]
print("\n n   two-step bound          observed gap_2n / gap_0")
for n, (bound, ratio) in enumerate(zip(two_step, ratios)):
    print(f"{n:>2}   {bound:<22.17g}  {ratio:.17g}")
