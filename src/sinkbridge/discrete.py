"""Log-domain Sinkhorn on discretized state spaces.

Models are triples of tabulated potentials (U, V, W) on a uniform midpoint
grid: the marginals are the normalized Boltzmann densities exp(-U) and
exp(-V), the reference channel has row densities proportional to exp(-W).
The iteration updates potential tables; kernel passes use kernels scaled
so that nothing overflows and recompute in the log domain whatever could
underflow (below), so sharp channels (W growing like squared distance over
a small noise scale) stay exact to round-off.  All quadrature is
midpoint-rule with uniform weights.

Two identities keep the hot loops at O(N) work beyond the kernel passes.

Increments are marginal log-ratios.  The second marginal of the plan
(U, V) has log density -V + log K(exp(-U)), and the update that corrects
it is V_next = V_pot + log K(exp(-U)), so that marginal is
log eta + (V_next - V); likewise the first marginal of an odd plan (U, V)
is log mu + (U_next - U).  Every half-step's residual and marginal
entropies therefore come from the next half-step's increment, and a sweep
costs two N x N passes.

Entropies are sums of nonnegative terms.  With x = log(pi / target) on
the target's support and pi of mass one, H(target | pi) =
sum w target (e^x - 1 - x) and H(pi | target) = sum w target
(x e^x - e^x + 1): each term is >= 0 and second order in x, where those of
sum w pi (log pi - log target) are first order and cancel to round-off
(Higham 2002).  ``_kl_terms`` evaluates them with expm1 and, below
|x| = 0.01, a series.  P_0 alone can put mass off supp(eta); its two
eta-side entries carry that leak, sum w eta (e^x - 1).

Bridge gaps telescope.  Each half-step is an I-projection (Csiszar 1975),
so with h_2j = H(eta | pi_2j) and h_2j+1 = H(mu | pi_2j+1),
H(P* | P_n) = sum_{k >= n} h_k.  ``entropy_report`` sums the h_k of a
trace and of its ``bridge_oracle`` continuation from the last one back;
the dense ``joint_relative_entropy`` is the independent check.

The loop keeps increments; the chains are formed after it.  Each entry is
one row sum over an (S, |supp|) increment array, bitwise that of the row.

A +inf potential is a hard zero of its density.  Residuals, entropies and
bridge gaps are taken over the support of the marginal they refer to,
where every quantity is finite; a non-finite residual there (a NaN in a
table, or a target node the channel cannot reach) raises DomainError.
Off the support a half-step's marginal is taken as zero, which is exact
from n = 1 on; the reference plan P_0 may still put mass off supp(eta),
and H(pi_0 | eta) counts only the part on the support.

Separable channels are applied one axis at a time.  On a tensor grid a
channel W(x, y) = sum_k F_k(x_k, y_k) has the kernel
K = K_1 (x) ... (x) K_d, and with f reshaped to the grid's tensor shape
    log K(e^{-f}) = L_d(... L_2(L_1(f))),
where L_k is a log-sum-exp over axis k against the factor table F_k (each
intermediate is negated before the next one; the L_k commute).  The
model stores the channel as the tuple of factors (F_1, ..., F_d); a dense
channel is the one factor (N, N).  A linear-Gaussian channel with
diagonal beta and tau is separable, with F_k its 1-d channel
(alpha_k, beta_kk, tau_kk) on axis k; ``models.model_from_spec`` picks
that form.  On an n x n grid a
kernel pass then costs O(n^3) instead of O(n^4), and the channel takes
2 n^2 floats instead of n^4.

Kernel passes are scaled matrix products.  Each factor F keeps its row
minima m and K = exp(-(F - m)), whose rows peak at 1; they are made once,
with the factor (below).  For one slice a of the contracted axis,
with b = a (axis=1) or b_i = a_i + m_i (axis=0) and c = min b,
    sum_j exp(-F_ij - a_j) = exp(-c - m_i) s_i,   s = exp(c - b) K^T,
    sum_i exp(-a_i - F_ij) = exp(-c) s_j,         s = exp(c - b) K,
so a contraction costs one exp per node and one BLAS product, where a
log-sum-exp reduction exponentiates a fresh table.  Every factor of s is at
most 1, so nothing overflows.  Underflow loses accuracy only in the terms
below the smallest normal double: each of exp(c - b_j), K_ij and their
product then carries an absolute error below 2^-1022, so a sum of n terms
is off by less than 3 n 2^-1022 (about 6.7e-308 n).  Entries of K below
the smallest normal double are therefore stored as 0, an error inside
that bound, because a subnormal operand slows a BLAS product several-fold
(a sharp channel, W growing like squared distance over a small noise
scale, has a band of them on each side of its diagonal).  Above
_THETA = 1e-280 that is a relative error below 6.7e-28 n, far below
round-off for any table that fits in memory.  A pass makes one test of s,
min s >= _THETA; when it holds, as it does unless a channel is sharp or a
potential has hard zeros, the pass finishes in the product's own buffer.
Otherwise the entries of s below _THETA are recomputed by the exact
reduction ``_neg_lse`` against F; when more than half of a contraction's
entries are below it, the whole contraction is.  A NaN fails the test,
reaches s and propagates as it does through the reduction.  A pass returns
-log K(e^{-f}), the sign of a potential, which the updates subtract.  The
pass is a pure function of (model, potential): it keeps
no state between calls (no absorption of large potentials into the
kernel), so a resumed iteration repeats a cold one bit for bit.
``matrix_scaling_plans`` forms its own exp(-W), so it stays an
independent oracle.

A factor is built with one exp per entry.  With m_raw the row minima of
the raw table W_raw, K = exp(m_raw - W_raw) does not depend on the row
normalisation: the normaliser z = log(K w) - m_raw shifts a whole row,
so F = W_raw + z and m = m_raw + z are shifts of the raw values and
exp(m - F) is the same K.  A factor is therefore the record
``Factor(table, m, kernel)``, made only by ``_normalize_channel`` (so by
``channel_table`` and the constructors of ``models``), and nothing rebuilds
its kernel: a model carries the kernels of the factors it is handed,
``dataclasses.replace`` included.  ``_normalize_channel`` makes F in the raw
table's own buffer, so a dense channel holds two N x N arrays, F and K:
``models`` hands it the tables its constructors make, and
``channel_table`` a copy of the table a caller's callable returns, which
stays as it is.  Validation reads the row minima: a
NaN or -inf entry makes its row's minimum NaN or -inf, and an all-+inf
row (no mass) makes it +inf, so no check passes over the N x N table.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError

# a scaled kernel sum below this is recomputed in the log domain (module docstring)
_THETA = 1e-280
# the smallest normal double; a scaled-kernel entry below it is stored as 0
_TINY = np.finfo(float).tiny
# the marginal residual at which bridge_oracle's reference counts as converged
ORACLE_TOL = 1e-13
# e^x - 1 - x = x^2 (1/2! + x/3! + ... + x^7/9!), coefficients highest power first for Horner's rule
_EXPM1_SERIES = 1.0 / np.array([math.factorial(k) for k in range(9, 1, -1)])
# below this |x| the series replaces expm1(x) - x
_SERIES_CUT = 0.01


@dataclass(frozen=True)
class Grid:
    """Flat list of quadrature nodes with positive weights."""

    points: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,)

    def __post_init__(self):
        object.__setattr__(self, "points", np.atleast_2d(np.asarray(self.points, dtype=float)))
        object.__setattr__(self, "weights", np.atleast_1d(np.asarray(self.weights, dtype=float)))
        if self.points.shape[0] != self.weights.shape[0]:
            raise ShapeError("points/weights length mismatch")
        if np.any(self.weights <= 0):
            raise DomainError("quadrature weights must be positive")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def uniform_grid(dim: int, n: int, radius: float) -> Grid:
    """Midpoint-rule grid with n cells per axis on [-radius, radius]^dim."""
    if dim not in (1, 2):
        raise DomainError("only 1- and 2-dimensional grids are supported")
    h = 2.0 * radius / n
    axis = -radius + h * (np.arange(n) + 0.5)
    if dim == 1:
        pts = axis[:, None]
    else:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
    return Grid(pts, np.full(pts.shape[0], h**dim))


class Factor(NamedTuple):
    """One channel factor: its table F, row minima m and scaled kernel K = exp(-(F - m)) (module docstring)."""

    table: np.ndarray  # (n, n), every row integrates to one against its axis weights
    m: np.ndarray  # (n,)
    kernel: np.ndarray  # (n, n), rows peak at 1, subnormal entries stored as 0


@dataclass(frozen=True)
class DiscreteModel:
    """Normalized potential tables for one Sinkhorn problem.

    ``channel`` holds the ``Factor`` records of W(x, y) = sum_k F_k(x_k, y_k),
    one (n_k, n_k) table per axis of a tensor grid in C order (the sizes
    multiply to N); a dense channel is the one factor (N, N).  Every factor
    row integrates to one against its axis weights, so every row of the
    channel does.
    """

    grid: Grid
    u_pot: np.ndarray  # (N,), mu = exp(-u_pot) integrates to 1
    v_pot: np.ndarray  # (N,)
    channel: tuple  # Factor records, see above
    # log of the quadrature weights, which every kernel pass reads, set once at construction
    log_w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "log_w", np.log(self.grid.weights))

    @property
    def w_pot(self) -> np.ndarray:
        """The (N, N) channel table, built on demand when the channel is factored.

        For the dense reference computations (plans, matrix scaling,
        conditional moments); the engine never reads it.
        """
        w = self.channel[0].table
        for f in self.channel[1:]:
            w = (w[:, None, :, None] + f.table[None, :, None, :]).reshape(w.shape[0] * f.table.shape[0], -1)
        return w

    @property
    def log_mu(self) -> np.ndarray:
        return -self.u_pot

    @property
    def log_eta(self) -> np.ndarray:
        return -self.v_pot


def _normalize_potential(raw: np.ndarray, log_w: np.ndarray, what: str) -> np.ndarray:
    log_z = _neg_lse(raw - log_w, 0)
    if not np.isfinite(log_z):
        raise DomainError(f"{what} underflows to zero total mass; widen the grid or rescale")
    return raw + log_z


def channel_table(w_fn, grid: Grid) -> Factor:
    """Tabulate a channel potential on grid x grid, each kernel row normalized.

    w_fn maps two point arrays to the (N, N) table; every row is shifted so
    that its kernel row integrates to one (a normalization the recursion
    tolerates).  On one axis of a tensor grid this gives a factor table.
    Returns the ``Factor`` of the table F with its scaled kernel (m, K),
    made with one exp per entry (module docstring).  F is a copy: the
    callable's table is left as it is.
    """
    return _normalize_channel(np.array(w_fn(grid.points, grid.points), dtype=float), grid)


def _normalize_channel(w_raw: np.ndarray, grid: Grid) -> Factor:
    """``channel_table`` of a raw float table that no one else holds, consumed: it becomes F in place."""
    if w_raw.shape != (grid.size, grid.size):
        raise ShapeError(f"channel table must be (N, N), got {w_raw.shape}")
    m_raw = w_raw.min(axis=1)
    if not np.all(m_raw > -np.inf):  # NaN fails the comparison too
        raise DomainError("W table contains NaN or -inf entries")
    if np.any(m_raw == np.inf):
        raise DomainError("a channel row underflows entirely: grid too narrow for this kernel")
    kern = _kernel_exp(np.subtract(m_raw[:, None], w_raw))
    z = np.log(kern @ grid.weights) - m_raw
    w_raw += z[:, None]
    return Factor(w_raw, m_raw + z, kern)


def build_model(u_fn, v_fn, w_fn, grid: Grid) -> DiscreteModel:
    """Tabulate and normalize a potential triple on a grid.

    u_fn and v_fn map an (N, dim) array of points to length-N potential
    values.  w_fn maps two point arrays to the (N, N) channel potential
    table (tabulated by ``channel_table``), or is a tuple of the ``Factor``
    records that ``channel_table`` returns: one per axis of a tensor grid,
    or the one dense factor.  The marginal potentials are shifted so the
    densities integrate to one.
    """
    pts = grid.points
    log_w = np.log(grid.weights)
    u_raw = np.asarray(u_fn(pts), dtype=float)
    v_raw = np.asarray(v_fn(pts), dtype=float)
    if u_raw.shape != (grid.size,) or v_raw.shape != (grid.size,):
        raise ShapeError("marginal potential tables must have shape (N,)")
    # +inf encodes a hard zero of the density and is legal; NaN and -inf are not
    for tab, what in ((u_raw, "U"), (v_raw, "V")):
        if np.any(np.isnan(tab)) or np.any(tab == -np.inf):
            raise DomainError(f"{what} table contains NaN or -inf entries")

    u_pot = _normalize_potential(u_raw, log_w, "mu")
    v_pot = _normalize_potential(v_raw, log_w, "eta")
    channel = (channel_table(w_fn, grid),) if callable(w_fn) else tuple(w_fn)  # a Factor is a tuple too
    shapes = [f.table.shape for f in channel]
    if math.prod(shape[0] for shape in shapes) != grid.size:
        raise ShapeError(f"channel factors {shapes} do not tile a grid of {grid.size} nodes")
    return DiscreteModel(grid, u_pot, v_pot, channel)


@dataclass(frozen=True)
class SinkhornState:
    """Potential tables (U_n, V_n) after n alternating half-steps."""

    model: DiscreteModel
    n: int
    u: np.ndarray
    v: np.ndarray


def _neg_lse(t: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(-t) along ``axis``, consuming the table ``t``.

    The reduction of a kernel pass: a min-shift, an in-place exp and a
    sum, with no temporary the size of ``t``.  A slice that is +inf
    throughout (no mass) gives -inf, and a NaN gives NaN.
    """
    shift = t.min(axis=axis, keepdims=True)
    shift[np.isinf(shift)] = 0.0  # a NaN shift stays: its slice is NaN anyway, and 0 could overflow exp
    np.subtract(shift, t, out=t)
    np.exp(t, out=t)
    with np.errstate(divide="ignore"):
        return np.log(t.sum(axis=axis)) - shift.squeeze(axis)


def _kernel_exp(shifted: np.ndarray) -> np.ndarray:
    """exp of a row-shifted table in place, subnormal results set to 0 (module docstring)."""
    np.exp(shifted, out=shifted)
    if not shifted.min() >= _TINY:  # one scan; the mask is made only when an entry underflows or is NaN
        shifted[shifted < _TINY] = 0.0
    return shifted


def _factor_pass(factor: Factor, a: np.ndarray, axis: int) -> np.ndarray:
    """-log sum exp(-F - a) over one axis of the factor's table F, for every row of ``a`` (M, n).

    The scaled product of the module docstring, finished in the product's
    own buffer.  One guard, min s >= _THETA, lets a pass through with
    nothing recomputed; a NaN fails it too.  Past the guard the entries
    below _THETA are recomputed exactly by ``_neg_lse``, and so is the
    whole contraction when more than half of them fall below it.
    """
    f, m, kern = factor
    b = a if axis == 1 else a + m
    c = b.min(axis=1, keepdims=True)
    c[np.isinf(c)] = 0.0  # as in _neg_lse
    e = np.subtract(c, b)
    np.exp(e, out=e)
    s = e @ (kern.T if axis == 1 else kern)
    rows = cols = ()
    if not s.min() >= _THETA:
        rows, cols = np.nonzero(s < _THETA)
        if 2 * len(rows) > s.size:
            return -_neg_lse(f + (a[:, None, :] if axis == 1 else a[:, :, None]), axis - 2)
        s[rows, cols] = 1.0  # recomputed below; keeps a zero out of the log
    np.log(s, out=s)
    np.subtract(c, s, out=s)
    if axis == 1:
        s += m
    if len(rows):
        s[rows, cols] = -_neg_lse((f if axis == 1 else f.T)[cols] + a[rows], 1)
    return s


def _kernel_pass(model: DiscreteModel, pot: np.ndarray, axis: int) -> np.ndarray:
    """-log of the channel kernel applied to exp(-pot), one factor at a time.

    axis=1 sums over the second argument of the channel:
    -log sum_j w_j exp(-W_ij - pot_j) for every i, that is -log K_W(exp(-pot)).
    axis=0 sums over the first: -log sum_i w_i exp(-pot_i - W_ij) for every j.
    The potential is reshaped to the factors' tensor shape and each factor
    contracts its axis with its scaled kernel (module docstring); one
    factor is the dense pass.  The sign is that of a potential, so the
    updates subtract the pass and nothing negates it.
    """
    t = pot - model.log_w
    if len(model.channel) == 1:
        return _factor_pass(model.channel[0], t[None, :], axis)[0]
    t = t.reshape([f.table.shape[0] for f in model.channel])
    for k, factor in enumerate(model.channel):
        a = t.swapaxes(k, -1)
        t = _factor_pass(factor, a.reshape(-1, a.shape[-1]), axis).reshape(a.shape).swapaxes(k, -1)
    return t.reshape(-1)


def _update_u(model: DiscreteModel, v: np.ndarray) -> np.ndarray:
    return model.u_pot - _kernel_pass(model, v, 1)


def _update_v(model: DiscreteModel, u: np.ndarray) -> np.ndarray:
    return model.v_pot - _kernel_pass(model, u, 0)


def _support(pot: np.ndarray) -> np.ndarray | slice:
    """Index of the nodes where exp(-pot) is not a hard zero (NaN counts); slice(None) when that is all of them."""
    supp = pot != np.inf
    return slice(None) if supp.all() else supp


def _residual(log_ratio: np.ndarray) -> float:
    """Sup-norm of a marginal log-ratio on a support; non-finite raises."""
    r = float(np.abs(log_ratio).max())
    if not math.isfinite(r):
        raise DomainError(
            "non-finite marginal residual on the support: a table holds NaN, "
            "or the channel cannot reach a node of a marginal's support"
        )
    return r


def initial_state(model: DiscreteModel) -> SinkhornState:
    """State n = 0: V_0 identically zero, U_0 its induced update."""
    v0 = np.zeros(model.grid.size)
    return SinkhornState(model, 0, _update_u(model, v0), v0)


def sinkhorn_step(state: SinkhornState) -> SinkhornState:
    """One alternating half-step in the log domain.

    Even -> odd updates the second potential (the new plan then has exact
    second marginal eta); odd -> even updates the first (exact first
    marginal mu).  Potentials are shared across the pairing
    U_{2n} = U_{2n+1} and V_{2n+1} = V_{2n+2}.
    """
    model = state.model
    if state.n % 2 == 0:
        return SinkhornState(model, state.n + 1, state.u, _update_v(model, state.u))
    return SinkhornState(model, state.n + 1, _update_u(model, state.v), state.v)


def _one_model(states) -> tuple[list, DiscreteModel]:
    """The states of one state or of a sequence of states, and the one model they share."""
    states = [states] if isinstance(states, SinkhornState) else list(states)
    model = states[0].model
    if any(s.model is not model for s in states):
        raise ShapeError("a stack of states must share one model")
    return states, model


def plan_log_density(state) -> np.ndarray:
    """Log density table of the coupling described by a state.

    A sequence of states of one model gives an (S, N, N) stack, each slice
    bitwise the table of its state alone.
    """
    states, model = _one_model(state)
    logs = np.add(np.array([s.u for s in states])[:, :, None], model.w_pot)
    logs += np.array([s.v for s in states])[:, None, :]
    np.negative(logs, out=logs)
    return logs[0] if isinstance(state, SinkhornState) else logs


def plan_marginal(state: SinkhornState, side: int) -> np.ndarray:
    """Log density of one marginal of the state's coupling: side 0 the first, side 1 the second."""
    model = state.model
    return -_kernel_pass(model, state.v, 1) - state.u if side == 0 else -_kernel_pass(model, state.u, 0) - state.v


def marginal_residual(state: SinkhornState, side: int) -> float:
    """Sup-norm of one marginal log-ratio on its support: side 0 the first against mu, side 1 the second against eta."""
    model = state.model
    pot, target = (model.u_pot, model.log_mu) if side == 0 else (model.v_pot, model.log_eta)
    supp = _support(pot)
    return _residual(plan_marginal(state, side)[supp] - target[supp])


def relative_entropy(log_p: np.ndarray, log_q: np.ndarray, weights: np.ndarray):
    """KL divergence between two densities tabulated on the same nodes.

    Nodes where p vanishes contribute nothing (0 log 0 = 0).  ``log_q`` may
    be a stack (S, *log_p.shape), which gives one KL per slice.  The slices
    share one buffer of one table's size, so a stack makes no temporary of
    its own size, and each slice's value is bitwise the single call's.
    """
    log_q = np.asarray(log_q)
    stacked = log_q.ndim > np.ndim(log_p)
    p, w, q = np.ravel(log_p), np.ravel(weights), log_q.reshape(len(log_q) if stacked else 1, -1)
    on = p != -np.inf
    cut = not on.all()
    if cut:
        p, w = p[on], w[on]
    mass = w * np.exp(p)
    terms, kl = np.empty_like(p), np.empty(len(q))
    for s, row in enumerate(q):
        np.subtract(p, row[on] if cut else row, out=terms)
        terms *= mass
        kl[s] = terms.sum()
    return kl if stacked else float(kl[0])


def joint_relative_entropy(log_p: np.ndarray, log_q: np.ndarray, weights: np.ndarray):
    """KL divergence between two couplings tabulated on the product grid (dense); log_q may be an (S, N, N) stack."""
    return relative_entropy(log_p, log_q, weights[:, None] * weights[None, :])


@dataclass
class SinkhornTrace:
    """Per-half-step potentials and marginal entropies of one run."""

    model: DiscreteModel
    states: list = field(default_factory=list)
    converged: bool = False
    # entropy sequences indexed by sweep n
    h_pi2n_eta: list = field(default_factory=list)
    h_eta_pi2n: list = field(default_factory=list)
    h_mu_pi2n1: list = field(default_factory=list)  # entry n holds H(mu | pi_{2n+1})
    h_pi2n1_mu: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    # the even state after the final sweep, already computed there: a continuation starts from it
    resume: SinkhornState | None = None

    @property
    def n_sweeps(self) -> int:
        return len(self.h_pi2n_eta) - 1


def run(
    model: DiscreteModel,
    n_sweeps: int,
    tol: float = 1e-10,
    start: SinkhornState | None = None,
) -> SinkhornTrace:
    """Alternate potential updates until the marginal flows settle.

    Parameters
    ----------
    model : DiscreteModel
    n_sweeps : int
        Maximum number of update pairs.
    tol : float
        Stop once the sup-norm of both marginal log-ratios falls below tol.
    start : SinkhornState, optional
        An even state of this model's iteration to resume from, bit for
        bit; by default state 0.

    Returns
    -------
    SinkhornTrace
        States for every half-step plus the four marginal entropy
        sequences.  ``converged`` is False when n_sweeps ran out first; the
        partial trace is still returned.

    Raises
    ------
    DomainError
        In the sweep where a residual turns non-finite on the support.
    """
    if n_sweeps < 1:
        raise DomainError("n_sweeps must be >= 1")
    state = initial_state(model) if start is None else start
    if state.n % 2:
        raise DomainError("run resumes from an even state")
    mu_supp, eta_supp = _support(model.u_pot), _support(model.v_pot)
    trace = SinkhornTrace(model)
    incs_eta, incs_mu = [], []

    for _ in range(n_sweeps + 1):
        # state has even index 2n here; each marginal comes from the
        # increment of the half-step that corrects it
        odd = sinkhorn_step(state)
        incs_eta.append(odd.v[eta_supp] - state.v[eta_supp])
        r_eta = _residual(incs_eta[-1])
        following = sinkhorn_step(odd)
        incs_mu.append(following.u[mu_supp] - odd.u[mu_supp])
        trace.states += (state, odd)
        trace.residuals.append(max(r_eta, _residual(incs_mu[-1])))
        if trace.residuals[-1] < tol:
            trace.converged = True
            break
        state = following
    trace.resume = following

    # each chain entry is one row sum of the _kl_terms (module docstring)
    w = model.grid.weights
    eta_mass, mu_mass = (w * np.exp(model.log_eta))[eta_supp], (w * np.exp(model.log_mu))[mu_supp]
    h_eta, h_pi_eta = (np.sum(eta_mass * t, axis=1) for t in _kl_terms(np.array(incs_eta)))
    if trace.states[0].n == 0 and isinstance(eta_supp, np.ndarray):
        leak = np.sum(eta_mass * np.expm1(incs_eta[0]))  # off supp(eta), from P_0 only
        h_eta[0] -= leak
        h_pi_eta[0] += leak
    trace.h_eta_pi2n, trace.h_pi2n_eta = h_eta.tolist(), h_pi_eta.tolist()
    trace.h_mu_pi2n1, trace.h_pi2n1_mu = (np.sum(mu_mass * t, axis=1).tolist() for t in _kl_terms(np.array(incs_mu)))
    return trace


def _kl_terms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^x - 1 - x and x e^x - e^x + 1, the terms of H(target | pi) and H(pi | target), x = log(pi / target)."""
    em1 = np.expm1(x)
    series = np.full_like(x, _EXPM1_SERIES[0])
    for c in (*_EXPM1_SERIES[1:], 0.0, 0.0):  # Horner's rule in place, times x^2
        series *= x
        series += c
    back = np.where(np.abs(x) < _SERIES_CUT, series, em1 - x)
    forward = x * em1
    forward -= back
    return back, forward


def bridge_oracle(model: DiscreteModel, max_sweeps: int = 100000,
                  start: SinkhornState | SinkhornTrace | None = None) -> SinkhornTrace:
    """``run`` from ``start`` continued to ``ORACLE_TOL``, the reference for the bridge gaps.

    The reference coupling is the returned trace's ``states[-2]``, the
    state a cold start reaches unless it would stop before ``start``.
    ``start`` may be a trace of ``run``: the oracle then continues it from
    its ``resume`` state, so no half-step is made twice, and is the trace
    itself when the trace's last residual is already below ``ORACLE_TOL``.
    Raises on non-convergence and on a non-finite residual.
    """
    if isinstance(start, SinkhornTrace):
        if start.residuals[-1] < ORACLE_TOL:
            return start
        start = start.resume
    trace = run(model, max_sweeps, ORACLE_TOL, start)
    if not trace.converged:
        raise DomainError(f"bridge oracle did not converge to {ORACLE_TOL} in {max_sweeps} sweeps")
    return trace


def entropy_report(trace: SinkhornTrace, oracle: SinkhornTrace) -> dict:
    """The four marginal chains of a run and its bridge gaps H(P* | P_n), even and odd, with no kernel pass.

    Each gap is the tail sum of the h_k of the trace and then of its
    ``bridge_oracle`` continuation, from the oracle's last entry back.
    """
    def h(t):  # h_k in state order: H(eta | pi_k) at even k, H(mu | pi_k) at odd k
        return np.column_stack([t.h_eta_pi2n, t.h_mu_pi2n1]).ravel()

    skip = 2 * len(trace.h_eta_pi2n) + trace.states[0].n - oracle.states[0].n  # entries the trace holds
    if skip < 0:
        raise DomainError("the oracle must start within the trace")
    gaps = np.cumsum(np.concatenate([h(trace), h(oracle)[skip:]])[::-1])[::-1][: len(trace.states)]
    return {
        "H_pi2n_eta": list(trace.h_pi2n_eta),
        "H_mu_pi2n1": list(trace.h_mu_pi2n1),
        "H_eta_pi2n": list(trace.h_eta_pi2n),
        "H_pi2n1_mu": list(trace.h_pi2n1_mu),
        "H_bridge_even": gaps[0::2].tolist(),
        "H_bridge_odd": gaps[1::2].tolist(),
    }


def matrix_scaling_plans(model: DiscreteModel, n_half_steps: int) -> list[np.ndarray]:
    """Independent oracle: classical row/column scaling in the mass domain.

    Starts from the reference plan mass matrix and alternately rescales
    columns to the eta masses and rows to the mu masses.  Returns the mass
    matrices after 0, 1, ..., n_half_steps corrections; these must match
    the potential-recursion plans exactly.
    """
    w = model.grid.weights
    a = np.exp(model.log_mu) * w
    b = np.exp(model.log_eta) * w
    plan = a[:, None] * np.exp(-model.w_pot) * w[None, :]
    plans = [plan.copy()]
    for n in range(n_half_steps):
        if n % 2 == 0:
            plan = plan * (b / plan.sum(axis=0))[None, :]
        else:
            plan = plan * (a / plan.sum(axis=1))[:, None]
        plans.append(plan.copy())
    return plans


def plan_mass(state) -> np.ndarray:
    """Mass matrix (density times product weights) of a state's coupling.

    A sequence of states of one model gives an (S, N, N) stack.
    """
    w = _one_model(state)[1].grid.weights
    mass = plan_log_density(state)
    np.exp(mass, out=mass)
    mass *= w[:, None]
    mass *= w[None, :]
    return mass


def conditional_moments(state: SinkhornState) -> tuple[np.ndarray, np.ndarray]:
    """Per-row conditional mean and covariance of the second coordinate.

    Returns arrays of shape (N, dim) and (N, dim, dim): the moments of
    y | x = x_i under the coupling.
    """
    return _conditional_moments(state.model, plan_log_density(state))


def _conditional_moments(model: DiscreteModel, log_plan: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moments of the column coordinate given each row node, for a log plan table on the grid."""
    log_cond = log_plan + model.log_w[None, :]
    log_cond -= _neg_lse(-log_cond, 1)[:, None]
    cond = np.exp(log_cond)
    pts = model.grid.points
    means = cond @ pts
    centered = pts[None, :, :] - means[:, None, :]
    covs = np.einsum("ij,ijk,ijl->ikl", cond, centered, centered)
    return means, covs


def mean_conditional_cov(state: SinkhornState) -> np.ndarray:
    """Marginal-weighted average conditional covariance of the state's transition.

    For an even state, that of y | x weighted by mu; for an odd one, that of
    x | y weighted by eta: the transition whose covariance a Gaussian
    Sinkhorn state's ``tau_n`` is, averaged over the marginal the state has
    exactly.
    """
    model = state.model
    log_plan = plan_log_density(state)
    if state.n % 2:
        log_plan, log_marginal = log_plan.T, model.log_eta
    else:
        log_marginal = model.log_mu
    _, covs = _conditional_moments(model, log_plan)
    mass = np.exp(log_marginal) * model.grid.weights
    return np.einsum("i,ikl->kl", mass, covs) / mass.sum()
