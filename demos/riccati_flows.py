"""Riccati map flows: closed-form fixed points, decay envelopes, and the
scalar closed-form trajectory.

Run:  python3 demos/riccati_flows.py
"""

import numpy as np

from sinkbridge import riccati, spd

# --- the scalar map and its golden-ratio fixed point -----------------------
varpi = np.array([[1.0]])
r_star = riccati.fixed_point(varpi)
print("fixed point of s -> (1 + 1/(1+s))^{-1}:", r_star[0, 0])
print("quadratic identity r + r^2 =", r_star[0, 0] + r_star[0, 0] ** 2)

delta, c_bound = riccati.decay_params(varpi)
print(f"decay rate delta = {delta:.10f}, certified prefactor c = {c_bound:.4f}")

# --- iteration vs envelope ---------------------------------------------------
traj = riccati.iterate(varpi, np.zeros((1, 1)), 20)
gap0 = abs(traj[0][0, 0] - r_star[0, 0])
print("\n n   |r_n - r*|        c * delta^n * |r_0 - r*|")
for n in [1, 2, 5, 10, 20]:
    gap = abs(traj[n][0, 0] - r_star[0, 0])
    print(f"{n:>2}   {gap:.3e}        {c_bound * delta**n * gap0:.3e}")

# --- the scalar closed form reproduces the iteration ------------------------
worst = max(
    abs(riccati.scalar_closed_form(1.0, 0.0, n) - traj[n][0, 0]) for n in range(21)
)
print("\nclosed-form vs iteration, max gap:", worst)

# --- a matrix flow: monotone approach sandwiched below the identity ---------
rng = np.random.default_rng(0)
q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
varpi4 = spd.symmetrize((q * [0.4, 0.9, 1.7, 3.0]) @ q.T)
r4 = riccati.fixed_point(varpi4)
flow = riccati.iterate(varpi4, np.zeros((4, 4)), 40)
print("\n4x4 flow from zero, distance to the fixed point:")
for n in [0, 5, 10, 20, 40]:
    print(f"  n={n:>2}  {np.linalg.norm(flow[n] - r4, 2):.3e}")
print("iterates below identity:", all(spd.loewner_leq(f, np.eye(4)) for f in flow[1:]))

# --- congruence-factorized form ----------------------------------------------
gamma = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
v = spd.symmetrize(np.diag([0.3, 0.7, 1.2]))
composed = riccati.psi_map(gamma, riccati.psi_map(gamma.T, v))
direct = riccati.ricc_map(spd.sym_inv(spd.symmetrize(gamma @ gamma.T)), v)
print("\npsi-factorization residual:", np.linalg.norm(composed - direct, 2))
