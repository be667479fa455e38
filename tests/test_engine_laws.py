"""The pointer engine against the continuum, with no grid and no FFT.

A Gaussian pointer of width s has the momentum density
rho(p) = exp(-2 s^2 p^2), up to a constant. After cycle k of a
deterministic run its spectrum is phi0^ M1 M^(k-1), where M1 and M are the
first and repeated multipliers of `postselected_multiplier`, so its
survival is

    S_k = int rho |M1|^2 r^(k-1) dp / int rho dp,     r = |M|^2,

and, by x <-> i d/dp, its pointer mean is

    mean_k = int rho [e1 r^(k-1) + (k-1) |M1|^2 e r^(k-2)] dp / (S_k int rho dp)

with e = Re(i conj(M) M') and e1 the same of M1. Here M and M' are summed
over the eigenpairs `numpy.linalg.eigh` gives, every integral is
`scipy.integrate.quad` over the whole line, and int rho dp is
sqrt(pi / 2) / s. The engine sums the same integrands over the grid's
momenta, so a fault the grid and the engine share, such as a sign of M',
shows here and in no byte-level test.

The engine's survival error grows with the cycle count, from the powers of
r: up to 1.6e-16 per cycle in these cases, 3.3e-16 at k = 1. Its mean
error stays near the rounding of the mean itself, at most 2.2e-16 for
means near 1. So each tolerance is a floor plus a slope in k, a mean's
scaled by 1 + |mean|, and lies about ten times above the worst error seen.

A fault that the grid and the engine share passes the continuum only if
it breaks no exact symmetry of the engine, so three more laws compare
runs on random inputs with each other: complex conjugation, a unitary
change of basis, and a common scale of the pointer, g and the grid.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ketlab import (HermitianOperator, StateVector, default_grid, haar_random_unitary, ket_plus,
                    protection_leak, protective_measure, qubit_state, sigma_x, sigma_y, sigma_z,
                    weak_pointer_shift)
from ketlab.measurement import PointerGrid
from ketlab.protective import _protective_loop
from oracles import haar_random_state, random_observable

SURVIVAL_TOL = (3e-15, 1.5e-15)   # (floor, slope per cycle)
MEAN_TOL = (1e-15, 1e-17)         # the same, times 1 + |mean|


def continuum(prepared, protected, op, g, k, width=1.0):
    """(S_k, mean_k) of a deterministic run on the continuum line."""
    values, vectors = np.linalg.eigh(op.matrix)
    post = protected.amplitudes.conj() @ vectors
    w_first = post * (vectors.conj().T @ prepared.amplitudes)
    w_repeat = np.abs(post) ** 2

    def squares(weights, p):
        phases = np.exp(-1j * g * values * p)
        m, dm = weights @ phases, weights @ (-1j * g * values * phases)
        return abs(m) ** 2, (1j * m.conjugate() * dm).real

    def density(p):
        f1, _ = squares(w_first, p)
        r, _ = squares(w_repeat, p)
        return math.exp(-2.0 * (width * p) ** 2) * f1 * r ** (k - 1)

    def moment(p):
        f1, e1 = squares(w_first, p)
        r, e = squares(w_repeat, p)
        later = (k - 1) * f1 * e * r ** (k - 2) if k > 1 else 0.0
        return math.exp(-2.0 * (width * p) ** 2) * (e1 * r ** (k - 1) + later)

    weight, first_moment = (quad(f, -np.inf, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                            for f in (density, moment))
    return weight / (math.sqrt(math.pi / 2.0) / width), first_moment / weight


def assert_matches_continuum(survival, mean, want, k):
    """Cycle k's survival and mean against `continuum`'s (S_k, mean_k)."""
    (floor, slope), (mean_floor, mean_slope) = SURVIVAL_TOL, MEAN_TOL
    want_survival, want_mean = want
    assert abs(survival - want_survival) <= floor + slope * k, (k, survival, want_survival)
    mean_tol = (mean_floor + mean_slope * k) * (1.0 + abs(want_mean))
    assert abs(mean - want_mean) <= mean_tol, (k, mean, want_mean)


def random_case(dim, seed):
    """(state, observable, another state), Haar-random in dimension `dim`."""
    rng = np.random.default_rng(seed)
    return haar_random_state(dim, rng), random_observable(dim, rng), haar_random_state(dim, rng)


KS = (1, 2, 10, 100)
D3_STATE, D3_OBSERVABLE, D3_OTHER_STATE = random_case(3, 3)


@pytest.mark.parametrize("psi,op,n,g,width", [
    (qubit_state(0.5236), sigma_z(), 400, 5e-3, 1.0),
    (qubit_state(0.5236, 0.7), sigma_y(), 400, 5e-3, 1.0),
    (qubit_state(1.1, -2.0), sigma_x(), 300, 1e-2, 2.0),
    (*random_case(3, 1)[:2], 200, 4e-3, 1.0),
    (*random_case(4, 2)[:2], 100, 2e-2, 0.5),
], ids=["z", "y-with-phase", "x-wide-pointer", "random-d3", "random-d4-narrow-pointer"])
def test_protective_runs_match_the_continuum(psi, op, n, g, width):
    run = protective_measure(psi, op, n=n, g=g, grid=default_grid(width), width=width)
    for k in (*KS, n):
        want = continuum(psi, psi, op, g, k, width)
        assert_matches_continuum(run.survivals[k - 1], run.pointer_means[k - 1], want, k)


@pytest.mark.parametrize("prepared,protected,op,n,g", [
    (ket_plus(), qubit_state(0.3, 0.2), sigma_x(), 150, 1e-2),
    (D3_STATE, D3_OTHER_STATE, D3_OBSERVABLE, 120, 1e-2),
], ids=["qubit", "random-d3"])
def test_a_mismatched_protection_matches_the_continuum(prepared, protected, op, n, g):
    """The first cycle multiplies by M1, which starts from the prepared
    state; every later cycle by M. `protection_leak` reports S_n."""
    run = _protective_loop(prepared, protected, op, n, g, None, 1.0, "deterministic", None)
    for k in (*KS, n):
        want = continuum(prepared, protected, op, g, k)
        assert_matches_continuum(run.survivals[k - 1], run.pointer_means[k - 1], want, k)
    survival = protection_leak(prepared, protected, op, n=n, g=g).survival
    assert survival == run.survival_probability


@pytest.mark.parametrize("seed", [4, 5])
def test_a_weak_readout_is_one_cycle_of_the_continuum(seed):
    psi, op, post = random_case(4, seed)
    mean, prob = weak_pointer_shift(psi, op, post, 0.05, default_grid(1.0), 1.0)
    assert_matches_continuum(prob, mean, continuum(psi, post, op, 0.05, 1), 1)


# ---------------------------------------------------------------------------
# exact symmetries of the engine

SYMMETRY_SURVIVAL_TOL = 1e-14   # per cycle of the run
SYMMETRY_MEAN_TOL = 1e-13       # times 1 + |mean|
SYMMETRY_SEEDS = range(8)


def symmetry_case(seed):
    """(rng, prepared, protected, op, n, g): Haar-random states and a random
    observable in d = 2 to 4, protecting the prepared state or another,
    with n from 1 to 400 cycles and g inside the wraparound guard of the
    default grid (extent 40) and at most 0.05."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    prepared, op, other = (haar_random_state(d, rng), random_observable(d, rng),
                           haar_random_state(d, rng))
    protected = prepared if rng.random() < 0.5 else other
    n = int(rng.integers(1, 401))
    top = float(np.max(np.abs(op.eigen.eigenvalues)))
    g = float(rng.uniform(0.1, 1.0)) * min(0.05, 10.0 / (n * top))
    return rng, prepared, protected, op, n, g


def run(prepared, protected, op, n, g, grid=None, width=1.0):
    return _protective_loop(prepared, protected, op, n, g, grid, width, "deterministic", None)


def assert_same_run(got, want, n, scale=1.0):
    """Equal survivals, to SYMMETRY_SURVIVAL_TOL per cycle, and pointer
    means equal to `scale` times `want`'s."""
    survival_gap = np.max(np.abs(got.survivals - want.survivals))
    assert survival_gap <= SYMMETRY_SURVIVAL_TOL * n, survival_gap
    means = scale * want.pointer_means
    mean_gap = np.max(np.abs(got.pointer_means - means) / (1.0 + np.abs(means)))
    assert mean_gap <= SYMMETRY_MEAN_TOL, mean_gap


def conjugated(psi):
    return StateVector(psi.dim, psi.amplitudes.conj())


@pytest.mark.parametrize("seed", SYMMETRY_SEEDS)
def test_complex_conjugation_leaves_a_run_unchanged(seed):
    """(psi*, A*) runs as (psi, A) does: the eigenvectors of A* are those
    of A conjugated, so every weight |<v_j|psi>|^2 and every M(p) is the
    same. For sigma_y, whose conjugate is -sigma_y, it reads: theta, -phi
    gives the survivals of theta, phi and the means negated. Worst gaps
    seen over 1000 seeds: 5.6e-17 per cycle, and 5.8e-16 in a mean."""
    _, prepared, protected, op, n, g = symmetry_case(seed)
    mirror = run(conjugated(prepared), conjugated(protected),
                 HermitianOperator(op.dim, op.matrix.conj()), n, g)
    assert_same_run(mirror, run(prepared, protected, op, n, g), n)


def test_conjugating_a_sigma_y_run_negates_its_means():
    theta, phi, n, g = 0.5236, 0.7, 400, 5e-3
    mirror = run(qubit_state(theta, -phi), qubit_state(theta, -phi), sigma_y(), n, g)
    original = run(qubit_state(theta, phi), qubit_state(theta, phi), sigma_y(), n, g)
    assert_same_run(mirror, original, n, scale=-1.0)


@pytest.mark.parametrize("seed", SYMMETRY_SEEDS)
def test_a_unitary_change_of_basis_leaves_a_run_unchanged(seed):
    """(U psi, U A U^dagger) runs as (psi, A) does, for a Haar U from
    `haar_random_unitary`: the weights are basis-free. Worst gaps seen
    over 1000 seeds: 3.3e-15 per cycle, and 7.9e-15 in a mean."""
    rng, prepared, protected, op, n, g = symmetry_case(seed)
    u = haar_random_unitary(op.dim, rng.random(2 * op.dim ** 2))
    rotated = run(StateVector(op.dim, u @ prepared.amplitudes),
                  StateVector(op.dim, u @ protected.amplitudes),
                  HermitianOperator(op.dim, u @ op.matrix @ u.conj().T), n, g)
    assert_same_run(rotated, run(prepared, protected, op, n, g), n)


@pytest.mark.parametrize("seed", SYMMETRY_SEEDS)
def test_scaling_the_pointer_scales_its_means_alone(seed):
    """Scaling the pointer width, g and the grid spacing by one factor c
    leaves every phase g a_j p, so the survivals and the inferred
    expectation are the same, and every pointer mean is c times as large.
    Worst gaps seen over 1000 seeds: 1.4e-16 per cycle, 7.8e-16 in a
    mean, and 2.9e-16 in the inferred expectation."""
    rng, prepared, protected, op, n, g = symmetry_case(seed)
    c = float(rng.uniform(0.3, 3.0))
    grid = default_grid(1.0)
    original = run(prepared, protected, op, n, g, grid)
    scaled = run(prepared, protected, op, n, c * g,
                 PointerGrid(grid.n_points, c * grid.spacing), c)
    assert_same_run(scaled, original, n, scale=c)
    inferred = original.inferred_expectation
    assert abs(scaled.inferred_expectation - inferred) <= SYMMETRY_MEAN_TOL * (1.0 + abs(inferred))
