import numpy as np
import pytest

from references import geometric_mean
from sinkbridge import gaussian, riccati, spd
from sinkbridge.bounds import CurvatureSpec
from sinkbridge.errors import DomainError, ShapeError


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return spd.symmetrize(a @ a.T + scale * np.eye(d))


def test_symmetrize_exact():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = spd.symmetrize(a)
    assert np.array_equal(s, s.T)


@pytest.mark.filterwarnings("error")
def test_symmetrize_does_not_overflow_near_the_largest_double():
    a = np.array([[1e308, 1.7e308], [1.7e308, 1e308]])
    assert np.array_equal(spd.symmetrize(a), a)


def test_symmetrize_matches_the_half_sum_bitwise():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((64, 5, 5)) * 10.0 ** rng.uniform(-300, 300, (64, 5, 5))
    assert np.array_equal(spd.symmetrize(a), 0.5 * (a + a.swapaxes(-1, -2)))


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(ShapeError):
        spd.symmetrize(np.ones((2, 3)))


def test_clamp_psd_kills_noise_but_rejects_negative():
    noise = spd.clamp_psd(np.diag([1.0, -1e-12]))
    assert np.linalg.eigvalsh(noise)[0] >= 0.0
    with pytest.raises(DomainError):
        spd.clamp_psd(np.diag([1.0, -1e-3]))


def test_sym_inv_rejects_singular():
    with pytest.raises(DomainError):
        spd.sym_inv(np.diag([1.0, 0.0]))


def test_principal_sqrt_identity():
    assert np.allclose(spd.principal_sqrt(np.eye(3)), np.eye(3))


def test_principal_sqrt_diagonal():
    assert np.allclose(spd.principal_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


@pytest.mark.parametrize("d", [2, 4, 8])
def test_principal_sqrt_squaring_oracle(d):
    # oracle: the square of the root must reproduce the input
    rng = np.random.default_rng(7 + d)
    a = random_spd(rng, d)
    root = spd.principal_sqrt(a)
    spd.sym_inv(root)  # the root is SPD
    err = np.linalg.norm(root @ root - a) / np.linalg.norm(a)
    assert err < 1e-10


# geometric_mean is the tests' reference for the zero-noise transport slope;
# these check the reference itself


def test_geometric_mean_idempotent():
    rng = np.random.default_rng(3)
    u = random_spd(rng, 3)
    assert np.allclose(geometric_mean(u, u), u, atol=1e-12)


def test_geometric_mean_commuting_scalar():
    # commuting case reduces to (uv)^{1/2}
    g = geometric_mean(np.array([[4.0]]), np.array([[1.0]]))
    assert np.allclose(g, [[2.0]])


def test_geometric_mean_symmetric_in_arguments():
    rng = np.random.default_rng(11)
    u = random_spd(rng, 2)
    v = random_spd(rng, 2)
    assert np.linalg.norm(u @ v - v @ u) > 1e-6  # genuinely non-commuting pair
    g1 = geometric_mean(u, v)
    g2 = geometric_mean(v, u)
    assert np.linalg.norm(g1 - g2, 2) < 1e-10


def test_geometric_mean_dim_mismatch():
    with pytest.raises(ShapeError):
        geometric_mean(np.eye(2), np.eye(3))


def test_loewner_leq_cases():
    assert spd.loewner_leq(np.zeros((2, 2)), np.eye(2), 1e-10)
    assert spd.loewner_leq(np.eye(2), np.eye(2), 1e-10)
    # eigencheck oracle: diag(2,2) - diag(1,3) has a negative eigenvalue
    assert not spd.loewner_leq(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]), 1e-10)


def test_sqrt_monotone_on_commuting_pairs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = np.diag(rng.uniform(0.1, 3.0, size=3))
        b = a + np.diag(rng.uniform(0.0, 2.0, size=3))
        assert spd.loewner_leq(spd.principal_sqrt(a), spd.principal_sqrt(b))


INDEFINITE = np.diag([1.0, -0.5])
EYE2 = np.eye(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: spd.sym_inv(INDEFINITE),
        lambda: spd.principal_sqrt(INDEFINITE),
        lambda: riccati.ricc_map(INDEFINITE, np.zeros((2, 2))),
        lambda: riccati.ricc_map(EYE2, INDEFINITE),
        lambda: spd.clamp_psd([[float("nan")]]),
        lambda: spd.sym_inv(np.diag([1.0, float("nan")])),
        lambda: riccati.iterate(EYE2, np.diag([1.0, float("nan")]), 3),
        lambda: riccati.ricc_map(EYE2, np.full((2, 2), float("nan"))),
        lambda: gaussian.GaussianMeasure([0.0, 0.0], INDEFINITE),
        lambda: gaussian.GaussianMeasure([0.0, 0.0, 0.0], np.diag([1.0, float("nan"), 1.0])),
        lambda: gaussian.LinearGaussianKernel([0.0, 0.0], EYE2, INDEFINITE),
        lambda: CurvatureSpec(u_plus=INDEFINITE, v_plus=EYE2),
        lambda: CurvatureSpec(u_plus=EYE2, v_plus=EYE2, u_minus=INDEFINITE),
    ],
    ids=[
        "sym_inv", "principal_sqrt",
        "ricc_map-varpi", "ricc_map-s", "clamp_psd-nan", "sym_inv-nan-last", "iterate-r0-nan", "ricc_map-s-nan", "GaussianMeasure", "GaussianMeasure-nan", "LinearGaussianKernel-tau",
        "CurvatureSpec-u_plus", "CurvatureSpec-u_minus",
    ],
)
def test_validating_entry_points_reject_non_spd(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("fn", [spd.sym_inv, spd.principal_sqrt])
def test_spd_primitive_decomposes_once(fn, decompositions):
    fn(random_spd(np.random.default_rng(1), 4))
    assert sum(decompositions.values()) == 1


def _stack_with(bad, d=3):
    """Three SPD slices of scale 1e6 around one bad slice, at index 2 of a (4, d, d) stack."""
    rng = np.random.default_rng(17)
    stack = np.stack([1e6 * random_spd(rng, d) for _ in range(4)])
    stack[2] = bad
    return stack


NAN_SLICE = np.diag([1.0, float("nan"), 1.0])
# an eigenvalue far below the slice's own noise floor -1e-10 * (1 + 1), but
# well above a floor taken from the stack's largest slices, ~ -1e-10 * 1e7
NEGATIVE_SLICE = np.diag([1.0, 0.5, -1e-5])
ILL_CONDITIONED_SLICE = np.diag([1.0, 0.5, 1e-13])


@pytest.mark.parametrize("fn", [spd.clamp_psd, spd.sym_inv])
@pytest.mark.parametrize("bad", [NAN_SLICE, NEGATIVE_SLICE], ids=["nan", "negative"])
def test_stacked_validation_is_per_slice(fn, bad):
    with pytest.raises(DomainError, match="matrix 2 of the stack"):
        fn(_stack_with(bad))


@pytest.mark.parametrize("fn", [spd.clamp_psd, spd.sym_inv])
def test_stacked_failure_names_its_slice_on_every_axis(fn):
    stack = np.stack([k * np.eye(3) for k in range(1, 7)]).reshape(3, 2, 3, 3)
    stack[0, 1] = NEGATIVE_SLICE
    with pytest.raises(DomainError, match=r"matrix \(0, 1\) of the stack"):
        fn(stack)


@pytest.mark.parametrize("fn", [spd.sym_inv])
def test_stacked_spd_check_is_per_slice(fn):
    with pytest.raises(DomainError, match="matrix 2 of the stack is not SPD"):
        fn(_stack_with(ILL_CONDITIONED_SLICE))


def test_stacked_clamp_accepts_singular_psd_slice():
    """A PSD constructor takes a slice of condition number > 1e12, as it takes the matrix alone."""
    stack = _stack_with(ILL_CONDITIONED_SLICE)
    assert np.array_equal(spd.clamp_psd(stack)[2], spd.clamp_psd(ILL_CONDITIONED_SLICE))


@pytest.mark.parametrize(
    "fn",
    [
        spd.symmetrize, spd.spectral_norm, spd.clamp_psd, spd.sym_inv, spd.principal_sqrt,
        lambda s: spd.loewner_leq(s, s), lambda s: spd.loewner_lt(s, 2.0 * s),
        lambda s: np.stack(spd._sqrt_pair(*spd._spd_eigh(s)[1:]), axis=-3),
    ],
    ids=["symmetrize", "spectral_norm", "clamp_psd", "sym_inv", "principal_sqrt", "loewner_leq",
         "loewner_lt", "sqrt_pair"],
)
def test_stacked_primitive_matches_single_calls_bitwise(fn):
    """Slices of scales 1e-7 to 1e6 and sizes up to 8: a check on the stack's scale would reject the small ones."""
    rng = np.random.default_rng(23)
    for d in (1, 2, 5, 8):
        stack = np.stack([scale * random_spd(rng, d) for scale in (1e-7, 1.0, 1e6, 3.0)]).reshape(2, 2, d, d)
        stacked = fn(stack)
        singles = np.array([[fn(x) for x in row] for row in stack])
        assert stacked.shape == singles.shape
        assert np.array_equal(stacked, singles)


def test_single_matrix_spectral_norm_is_a_float():
    assert type(spd.spectral_norm(np.diag([3.0, -4.0]))) is float
    assert spd.spectral_norm(np.stack([np.eye(2), 2.0 * np.eye(2)])).tolist() == [1.0, 2.0]


def test_single_matrix_loewner_order_is_a_bool():
    assert spd.loewner_leq(np.eye(2), 2.0 * np.eye(2)) is True
    assert spd.loewner_lt(np.eye(2), np.eye(2)) is False
    stack = np.stack([np.eye(2), 3.0 * np.eye(2)])
    assert spd.loewner_lt(stack, np.stack([2.0 * np.eye(2)] * 2)).tolist() == [True, False]


def test_one_matrix_entry_points_reject_a_stack():
    stack = np.stack([np.eye(2)] * 3)
    with pytest.raises(ShapeError):
        riccati.decay_params(stack)
