"""Log-domain Sinkhorn on a grid: potential recursions, entropy chains, and
agreement with the closed-form Gaussian bridge.

Run:  python3 demos/discrete_sinkhorn.py
"""

import numpy as np

from sinkbridge import discrete, models
from sinkbridge import gaussian as g

grid = discrete.uniform_grid(1, 64, 8.0)
channel = models.linear_gaussian_channel_potential([0.0], [[1.0]], [[1.0]])

# a Gaussian source against a bimodal target
model = discrete.build_model(
    models.quadratic_potential([0.0], [[1.0]]),
    models.gaussian_mixture_potential([0.5, 0.5], [[-2.0], [2.0]], [[[0.5]], [[0.5]]]),
    channel,
    grid,
)
trace = discrete.run(model, 200, tol=1e-11)
oracle = discrete.bridge_oracle(model)
rep = discrete.entropy_report(trace, oracle)

print(f"converged in {trace.n_sweeps} sweeps (residual {trace.residuals[-1]:.2e})")
print("\n n   H(pi_2n|eta)   H(eta|pi_2n)   H(bridge|P_2n)")
for n in range(min(8, trace.n_sweeps + 1)):
    print(
        f"{n:>2}   {rep['H_pi2n_eta'][n]:.6e}   {rep['H_eta_pi2n'][n]:.6e}   "
        f"{rep['H_bridge_even'][n]:.6e}"
    )
chains = [rep[key] for key in ("H_pi2n_eta", "H_eta_pi2n", "H_mu_pi2n1", "H_pi2n1_mu")]
print("smallest entropy-chain entry:", min(min(chain) for chain in chains))
# the bridge gaps are tail sums of the chains; the dense joint relative entropy checks them
ref = discrete.plan_log_density(oracle.states[-2])
gaps = [g for pair in zip(rep["H_bridge_even"], rep["H_bridge_odd"]) for g in pair]
dense = [discrete.joint_relative_entropy(ref, discrete.plan_log_density(s), grid.weights) for s in trace.states]
print("tail-sum vs dense bridge gap, max difference:", max(abs(a - b) for a, b in zip(gaps, dense)))

# the potential recursion and classical matrix scaling produce identical plans
plans = discrete.matrix_scaling_plans(model, 6)
state = discrete.initial_state(model)
worst = 0.0
for n in range(7):
    worst = max(worst, float(np.max(np.abs(discrete.plan_mass(state) - plans[n]))))
    state = discrete.sinkhorn_step(state)
print("potential recursion vs matrix scaling, max gap:", worst)

# on a pure Gaussian model the converged conditional covariance matches the
# closed form from the Gaussian track
gauss = discrete.build_model(
    models.quadratic_potential([0.0], [[1.0]]),
    models.quadratic_potential([0.0], [[1.0]]),
    channel,
    grid,
)
fwd = g.bridge_solve(
    g.GaussianMeasure([0.0], [[1.0]]),
    g.GaussianMeasure([0.0], [[1.0]]),
    g.LinearGaussianKernel([0.0], [[1.0]], [[1.0]]),
).forward
cc = discrete.mean_conditional_cov(discrete.bridge_oracle(gauss).states[-2])
print("\ndiscrete vs closed-form conditional covariance:")
print(f"  grid: {cc[0, 0]:.12f}   closed form: {fwd.noise_cov[0, 0]:.12f}")
