"""Born-rule sampling and the impulsive pointer-coupling unitary.

The measuring device is a one-dimensional pointer discretized on a uniform
periodic grid. A measurement interaction of strength g applies
exp(-i g A (x) p_hat) to the joint system+pointer state: each eigencomponent
of the measured observable A translates the pointer by g times its
eigenvalue. Translations act by phase multiplication in the pointer's
Fourier-conjugate basis, so the evolution is exactly unitary on the grid --
there is no integrator, no time step, and no truncation beyond the grid
itself. The flip side is periodicity: a translation that would push the
wavepacket off one edge re-enters at the other, so couplings are rejected
up front unless the total shift stays under a quarter of the grid extent.

A `Scenario` names the preparations and measurements of a
prepare-and-measure setup and derives, from one overlap per preparation
and measurement, its Born table `born` and which outcomes the Born rule
never fires: outcome k of a measurement is forbidden for a preparation psi
when its amplitude |<v_k|psi>| is below FORBIDDEN_TOL. The PBR experiment
samples that table, the ontology module's orthodox model is that table,
and its Born gaps are measured against it.

A coupling followed by a postselection of the system on |post> never needs
the joint state: it multiplies the pointer's spectrum by
M(p) = sum_j <post|v_j><v_j|pre> exp(-i g a_j p) over the eigenpairs
(a_j, v_j) of A. A readout needs only the postselected pointer's norm and
mean, and both stay in momentum space: Parseval gives the norm, and
x <-> i d/dp gives the first moment from M and its p-derivative M'.
`postselected_cycles` reads a run of cycles that way, in blocks of real
powers of |M|^2 times one matrix product, with no inverse FFT, and sums
only over the momenta the pointer occupies (`occupied_momenta`; the rest
of its spectrum is FFT rounding): it is the kernel of the protective
engine, whose runs of consecutive protections include the weak readout, a
run of one cycle postselected on |post>.

Grid wavefunctions carry the measure: norms are sums of |amplitude|^2
times the grid spacing, matching the continuum normalization they sample.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from . import DEFAULT_GRID_POINTS, record
from .errors import (
    DegenerateInputError,
    PreconditionError,
    WraparoundError,
)
from .hilbert import (EigenDecomposition, HermitianOperator, StateVector, _checked_dim,
                      _finite_real, _number_array, _readonly, complex_json)
from .rngs import uniform_chunks

MIN_GRID_POINTS = 16
EXTENT_WIDTH_FACTOR = 20.0   # grid extent must cover >= 20 pointer widths
WIDTH_SPACING_FACTOR = 4.0   # pointer width must cover >= 4 grid spacings
GRID_NORM_TOL = 1e-10        # allowed norm defect for grid wavefunctions
DEGENERATE_PROB_TOL = 1e-15  # total Born weight below this cannot be sampled
FORBIDDEN_TOL = 1e-12        # amplitude |<v_k|psi>| below this forbids outcome k
DEFAULT_EXTENT_WIDTHS = 40.0
BLOCK_ELEMENTS = 2 ** 13     # real entries (64 KB) per array of a block: B cycles x K momenta
CACHE_SIZE = 8               # default grids, and pointers, kept per process
# The small-g twin of `coupling_phases`' wraparound rule: a readout divided
# by g needs a coupling whose largest phase step |g| max|a_j| max|p|, over
# the momenta p the pointer occupies, is at least this. At 1e-20 an inferred
# expectation was off by at most 4.1e-12 max|a_j| (1 to 400 cycles, d = 2
# to 4, pointer widths 0.5 to 4, 512 and 1024 grid points); below it the
# error grows as 1 / step, to 1e-9 near 1e-23 and to the whole readout
# near 1e-33.
MIN_PHASE_STEP = 1e-20


@record
class PointerGrid:
    """Uniform periodic position grid for the pointer degree of freedom."""

    n_points: int
    spacing: float
    center: float = 0.0

    def __post_init__(self) -> None:
        # capped before `positions` or `momenta` allocate anything
        n = _checked_dim(self.n_points, "n_points")
        if n < MIN_GRID_POINTS or (n & (n - 1)) != 0:
            raise PreconditionError(
                f"n_points must be a power of two >= {MIN_GRID_POINTS}, got {n}"
            )
        spacing = _finite_real(self.spacing, "spacing")
        if not spacing > 0.0:
            raise PreconditionError(f"spacing must be positive, got {spacing!r}")
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "center", _finite_real(self.center, "center"))

    @property
    def extent(self) -> float:
        return self.n_points * self.spacing

    @cached_property
    def positions(self) -> np.ndarray:
        idx = np.arange(self.n_points) - self.n_points // 2
        return _readonly(self.center + idx * self.spacing)

    @cached_property
    def momenta(self) -> np.ndarray:
        """Angular wavenumbers conjugate to the positions (hbar = 1)."""
        return _readonly(2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing))

    def to_json_dict(self) -> dict:
        return {"n_points": self.n_points, "spacing": self.spacing, "center": self.center}


def _profile_width(width, what: str) -> float:
    """`width` as a float when 4 width^2, the divisor of `gaussian_profile`,
    is a positive normal float (|width| from 7.5e-155 to 6.7e153), else
    PreconditionError naming `what`: past either end the profile divides
    by zero or by inf, and no norm can be taken."""
    width = _finite_real(width, what)
    if not sys.float_info.min <= 4.0 * width * width <= sys.float_info.max:
        raise PreconditionError(
            f"{what} {width!r} is out of range: 4 {what}^2 must be a positive normal float"
        )
    return width


def default_grid(width: float = 1.0, n_points: int = DEFAULT_GRID_POINTS) -> PointerGrid:
    """Grid centred on 0 with the default extent of 40 pointer widths: one
    read-only grid per (width, n_points), kept with its cached positions
    and momenta for the next run that asks for it. The width must pass
    `_profile_width` and n_points be an integer from 1 to MAX_DIM (checked
    before the lookup), else PreconditionError; `PointerGrid` checks the rest."""
    return _default_grid(_profile_width(width, "width"), _checked_dim(n_points, "n_points"))


@lru_cache(maxsize=CACHE_SIZE)
def _default_grid(width: float, n_points: int) -> PointerGrid:
    return PointerGrid(n_points, DEFAULT_EXTENT_WIDTHS * width / n_points)


def _unit_grid_norm(amps: np.ndarray, grid: PointerGrid, what: str) -> np.ndarray:
    """`amps`, read-only, once their grid norm sum |a|^2 * spacing is 1."""
    with np.errstate(over="ignore", invalid="ignore"):   # a huge entry fails below
        norm = float(np.sum(np.abs(amps) ** 2) * grid.spacing)
    if not abs(norm - 1.0) <= GRID_NORM_TOL:
        raise PreconditionError(
            f"{what} norm {norm!r} differs from 1 by more than {GRID_NORM_TOL}"
        )
    return _readonly(amps)


@record
class GridWavefunction:
    """One-dimensional wavefunction sampled on a PointerGrid."""

    grid: PointerGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _number_array(self.amplitudes, "amplitudes", complex, (self.grid.n_points,))
        object.__setattr__(self, "amplitudes",
                           _unit_grid_norm(amps, self.grid, "grid wavefunction"))

    @cached_property
    def spectra(self) -> np.ndarray:
        """The (2, N) rows [FFT(phi), FFT(x phi)], x the offset of each grid
        point from the centre, from one FFT call: the pointer's share of
        `postselected_cycles`' moments."""
        grid = self.grid
        offsets = (np.arange(grid.n_points) - grid.n_points // 2) * grid.spacing
        return _readonly(np.fft.fft(np.stack([self.amplitudes, offsets * self.amplitudes]),
                                    axis=1))

    @cached_property
    def occupied_momenta(self) -> np.ndarray:
        """Indices of the momenta this wavefunction occupies: those where its
        spectrum b = |phi0^|^2 is at least eps^2 max b, eps float64's machine
        epsilon. Below that level b is the FFT's rounding, not the pointer: a
        Gaussian pointer of 40 widths per extent keeps 77 momenta at any N,
        and the narrowest `make_pointer` accepts about half of them."""
        spectrum = self.spectra[0]
        b = spectrum.real ** 2 + spectrum.imag ** 2
        return _readonly(np.flatnonzero(b >= np.finfo(float).eps ** 2 * b.max()))

    @classmethod
    def normalized(cls, grid: PointerGrid, amplitudes) -> "GridWavefunction":
        """Build a wavefunction from unnormalized amplitudes on `grid`."""
        amps = _number_array(amplitudes, "amplitudes", complex)
        with np.errstate(over="ignore"):   # huge entries give an infinite norm
            norm = math.sqrt(float(np.sum(np.abs(amps) ** 2) * grid.spacing))
        if not 0.0 < norm < math.inf:
            raise PreconditionError(f"cannot normalize a grid wavefunction of norm {norm!r}")
        return cls(grid, amps / norm)


@record
class JointSystemPointerState:
    """Entangled state of a d-dimensional system and the pointer.

    amplitudes[i, j] is the amplitude for system basis state i at pointer
    position j; the norm convention is sum |amp|^2 * spacing = 1.
    """

    system_dim: int
    grid: PointerGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        d = _checked_dim(self.system_dim, "system_dim")
        _checked_dim(d * self.grid.n_points, "joint dimension")
        amps = _number_array(self.amplitudes, "amplitudes", complex, (d, self.grid.n_points))
        object.__setattr__(self, "system_dim", d)
        object.__setattr__(self, "amplitudes", _unit_grid_norm(amps, self.grid, "joint state"))

    def to_json_dict(self) -> dict:
        return {
            "system_dim": self.system_dim,
            "grid": self.grid.to_json_dict(),
            **complex_json(self.amplitudes),
        }


@record
class OutcomeSample:
    """One projective measurement outcome with its collapsed state."""

    eigenvalue: float
    outcome_index: int
    collapsed: StateVector
    probability: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.probability <= 1.0 + 1e-12:
            raise PreconditionError(
                f"outcome probability {self.probability!r} outside [0, 1]"
            )


# ---------------------------------------------------------------------------
# projective measurement

def _overlaps(psi: StateVector, basis: EigenDecomposition) -> np.ndarray:
    """<v_i|psi> for each eigenvector of the measured observable."""
    if psi.dim != basis.dim:
        raise PreconditionError(f"dimension mismatch: state {psi.dim} vs basis {basis.dim}")
    return basis.basis_matrix.conj().T @ psi.amplitudes


def born_probabilities(psi: StateVector, basis: EigenDecomposition) -> np.ndarray:
    """p_i = |<v_i|psi>|^2 for each eigenvector of the measured observable."""
    return np.abs(_overlaps(psi, basis)) ** 2


@record
class Scenario:
    """Named preparations and measurements, with their Born table and
    forbidden outcomes, both derived, never passed in.

    `born` is the scenario's Born table: it maps each measurement id to a
    read-only array with one row per preparation, in preparation order,
    and one column per outcome, row i being `born_probabilities` of the
    i-th preparation (shape (0, K) when there is none). `forbidden` maps
    each preparation id to the (measurement id, outcome index) pairs whose
    amplitude |<v_k|psi>| is below FORBIDDEN_TOL, in preparation,
    measurement and outcome order. Preparations with no forbidden outcome
    are left out.
    """

    name: str
    preparations: Mapping[str, StateVector]
    measurements: Mapping[str, EigenDecomposition]

    def __post_init__(self) -> None:
        preps, measurements = dict(self.preparations), dict(self.measurements)
        amplitudes = {meas_id: np.abs([_overlaps(psi, basis) for psi in preps.values()]
                                      ).reshape(len(preps), basis.dim)
                      for meas_id, basis in measurements.items()}
        forbidden = {}
        for i, prep_id in enumerate(preps):
            pairs = tuple((meas_id, int(k)) for meas_id, rows in amplitudes.items()
                          for k in np.flatnonzero(rows[i] < FORBIDDEN_TOL))
            if pairs:
                forbidden[prep_id] = pairs
        object.__setattr__(self, "preparations", preps)
        object.__setattr__(self, "measurements", measurements)
        object.__setattr__(self, "born", {meas_id: _readonly(rows ** 2)
                                          for meas_id, rows in amplitudes.items()})
        object.__setattr__(self, "forbidden", forbidden)


def inverse_cdf(weights, uniforms) -> np.ndarray:
    """Outcome indices that `uniforms` select from one table of
    nonnegative `weights`.

    The inverse-CDF walk every sampler of this package draws through: a
    uniform u picks the first outcome whose cumulative weight exceeds
    u * total, where total is the last cumulative weight. The cumulative
    sums are sequential, so a draw matches a walk that adds the weights
    one by one, and the binary search is exact on them, since they never
    decrease. Since u < 1, u * total stays below a total that is a normal
    float, so no outcome of weight zero is ever drawn; only an all-zero or
    NaN table (or a subnormal total) falls through to the last outcome,
    since the search sorts NaN last.
    """
    cdf = np.cumsum(np.asarray(weights, dtype=float))
    passed = np.searchsorted(cdf, np.asarray(uniforms) * cdf[-1], side="right")
    return np.minimum(passed, len(cdf) - 1)


def tally(weights, blocks) -> np.ndarray:
    """Counts of each outcome of one table `weights` that the uniforms in
    `blocks` select, by `inverse_cdf`: one walk and one `bincount` per
    block, any shape of block, each tallied before the next is read, so
    memory stays that of one block however many uniforms there are. Every
    sampler that counts outcomes counts them here: `steer` per basis,
    `pbr_experiment` per preparation and `monte_carlo_onto` per cell."""
    counts = np.zeros(len(weights), dtype=np.int64)
    for uniforms in blocks:
        counts += np.bincount(inverse_cdf(weights, uniforms.ravel()), minlength=len(counts))
    return counts


def born_outcomes(psi: StateVector, basis: EigenDecomposition) -> tuple:
    """(eigenvalues, weights, projections) of measuring `basis` on `psi`.

    Outcomes are the distinct eigenvalue groups of the basis (degenerate
    eigenvalues within DEGENERACY_TOL count as one outcome). weights[k] is
    outcome k's Born weight and projections[k] the unnormalized projection
    of psi onto its eigenspace.
    """
    overlaps = _overlaps(psi, basis)
    per_vector = np.abs(overlaps) ** 2
    eigenvalues, weights, projections = [], [], []
    for value, idx in basis.groups:
        idx = list(idx)
        eigenvalues.append(value)
        weights.append(per_vector[idx].sum())
        projections.append(basis.basis_matrix[:, idx] @ overlaps[idx])
    return tuple(eigenvalues), np.array(weights), tuple(projections)


def strong_measure(psi: StateVector, basis: EigenDecomposition, seed: int) -> OutcomeSample:
    """Sample one projective outcome of `born_outcomes` and collapse.

    The collapsed state is the normalized projection of psi onto the
    outcome eigenspace. `seed` is an integer master seed (a Generator is no
    seed): uniform 0 of its substream 0, read through `uniform_chunks`,
    picks the outcome by `inverse_cdf`.
    """
    u = next(uniform_chunks(seed, 0, 1))[0, 0]
    eigenvalues, weights, projections = born_outcomes(psi, basis)
    total = float(weights.sum())
    if total <= DEGENERATE_PROB_TOL:
        raise DegenerateInputError(
            f"all outcome probabilities vanished (total {total:.3e})"
        )
    k = int(inverse_cdf(weights, u))
    return OutcomeSample(
        eigenvalue=eigenvalues[k],
        outcome_index=k,
        collapsed=StateVector.normalized(projections[k]),
        probability=float(min(weights[k], 1.0)),
    )


# ---------------------------------------------------------------------------
# pointer preparation and coupling

def gaussian_profile(displacement: np.ndarray, width: float) -> np.ndarray:
    """exp(-x^2 / (4 width^2)) at each displacement x: a Gaussian amplitude
    whose squared modulus has standard deviation `width`."""
    # a numpy power: the same bits as float's, but an overflow gives inf, and
    # an underflow a zero divisor, each with a norm the wavefunction check
    # rejects and without a warning, instead of an OverflowError
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.exp(-(displacement ** 2) / (4.0 * np.float64(width) ** 2))


def make_pointer(grid: PointerGrid, width: float) -> GridWavefunction:
    """Gaussian ready state: |chi(x)|^2 is normal with sd `width` at grid center.

    `width` must pass `_profile_width`, and both width checks against
    the grid run on every call. The pointer is then one read-only
    wavefunction per (grid object, width), kept with its cached `spectra`
    and `occupied_momenta` for the next run on that grid."""
    width = _profile_width(width, "pointer width")
    if width < WIDTH_SPACING_FACTOR * grid.spacing:
        raise PreconditionError(
            f"pointer width {width} under-resolved: needs >= "
            f"{WIDTH_SPACING_FACTOR} x spacing = {WIDTH_SPACING_FACTOR * grid.spacing}"
        )
    if grid.extent < EXTENT_WIDTH_FACTOR * width:
        raise PreconditionError(
            f"grid extent {grid.extent} too small for pointer width {width}: "
            f"needs >= {EXTENT_WIDTH_FACTOR * width}"
        )
    return _pointer(grid, width)


@lru_cache(maxsize=CACHE_SIZE)
def _pointer(grid: PointerGrid, width: float) -> GridWavefunction:
    chi = gaussian_profile(grid.positions - grid.center, width)
    return GridWavefunction.normalized(grid, chi)


def coupling_phases(eig: EigenDecomposition, g: float, grid: PointerGrid,
                    couplings: int) -> np.ndarray:
    """Rows exp(-i g a_j p) over the grid momenta p, one per eigenvalue a_j.

    Row j translates a pointer by g * a_j. A non-finite g is rejected with
    PreconditionError, and one for which `couplings` successive couplings
    could shift the pointer by more than a quarter of the grid extent with
    WraparoundError (periodic wraparound would corrupt the record). The
    guard counts at least one coupling: the rows themselves, and the
    multipliers built from them, must hold for one, even where no cycle
    is run.
    """
    g = _finite_real(g, "coupling g")
    couplings = max(couplings, 1)
    vals = np.asarray(eig.eigenvalues)
    max_shift = float(abs(g) * couplings * np.max(np.abs(vals)))
    if max_shift > grid.extent / 4.0:
        raise WraparoundError(
            f"pointer shift {max_shift:.4g} over {couplings} coupling(s) exceeds a quarter "
            f"of the grid extent ({grid.extent / 4.0:.4g}); the grid needs extent >= "
            f"{4.0 * max_shift:.4g}"
        )
    return np.exp(-1j * g * np.outer(vals, grid.momenta))


def postselected_multiplier(eig: EigenDecomposition, g: float, phases: np.ndarray,
                            post: np.ndarray, pre: np.ndarray) -> np.ndarray:
    """Rows [M, M'] over the grid momenta p: the multiplier
    M(p) = sum_j <post|v_j><v_j|pre> exp(-i g a_j p) and its p-derivative
    M'(p) = sum_j <post|v_j><v_j|pre> (-i g a_j) exp(-i g a_j p).

    Coupling a system in |pre> to the pointer with strength g and
    postselecting it on |post> multiplies the pointer's spectrum by M;
    `phases` holds the rows of `coupling_phases` for the same decomposition
    and g. M' is one more row of the same product, the weights times
    -i g a_j; `postselected_cycles` reads the pointer's mean from it.
    """
    v = eig.basis_matrix
    w = (post.conj() @ v) * (v.conj().T @ pre)
    return np.stack([w, -1j * g * np.asarray(eig.eigenvalues) * w]) @ phases


def _squares(multiplier: np.ndarray) -> tuple:
    """|M|^2 and Re(i conj(M) M') of a `postselected_multiplier` pair: the
    rows a cycle multiplies a pointer's density and its mean's weight by."""
    m, dm = multiplier
    return m.real ** 2 + m.imag ** 2, m.imag * dm.real - m.real * dm.imag


def postselected_cycles(pointer: GridWavefunction, first: np.ndarray, repeated: np.ndarray,
                        cycles: int) -> tuple:
    """The columns (weights, means) of cycles 1..`cycles`, read in blocks.

    Cycle 1 multiplies the pointer's spectrum phi0^ by the multiplier M1 of
    `first`, and each later cycle by the M of `repeated` (both
    `postselected_multiplier` pairs), so after cycle k it is
    phi0^ M1 M^(k-1). weights[k - 1] is that pointer's squared grid norm
    W_k and means[k - 1] its mean position relative to the ready pointer's.
    Neither needs the pointer itself. With
    b = |phi0^|^2, a = Re(conj(phi0^) FFT(x phi0)) (the pointer's
    `spectra`), f1, e1 and r, e the `_squares` of M1 and M,
    Parseval and x <-> i d/dp give

        W_k = (h/N) sum_p b f1 r^(k-1),
        W_k mean_k = (h/N) sum_p [(a f1 + b e1) r^(k-1) + (k-1) b f1 e r^(k-2)]

    for N grid points of spacing h. The mean is that of the pointer on the
    line, so a tail pushed past the grid's edge counts where it is, not
    where periodic wraparound would put it. Each mean is reported less
    mean_0 = sum_p a / sum_p b, the ready pointer's own mean from the same
    sums: it is 0 for a pointer centred on the grid, and for the package's
    Gaussian pointer it is rounding alone (-2.7e-17 for the default one),
    which a readout divided by a small n g would otherwise magnify.

    The sums run over the pointer's K `occupied_momenta` only. Each
    dropped momentum has b < eps^2 max b, and f1, r <= 1 and h max b <= N
    (Parseval), so together they move W_k (W_0 = 1) by less than N eps^2,
    2.5e-29 at N = 512, far below the rounding of the kept sum.

    A block of B = min(cycles, max(1, BLOCK_ELEMENTS // K)) cycles is one
    real (B + 1, K) stack of powers of r times the (K, 3) matrix of the
    sums' other factors: row i + 1 holds the i-th cycle's r^(k-1), and row
    0 the power before the block's first cycle, which the (k-1) term reads
    (0 before cycle 1, where that term vanishes). The powers r^0 .. r^B are
    one `np.cumprod` per run, and each later block is the last row of the
    one before times them. r <= 1 and r(0) = 1, so nothing is renormalised
    and nothing is divided by r, which vanishes wherever M does.
    """
    grid = pointer.grid
    kept = pointer.occupied_momenta
    rows = max(1, min(cycles, BLOCK_ELEMENTS // kept.size))
    spectrum, moment = pointer.spectra[:, kept]
    b = spectrum.real ** 2 + spectrum.imag ** 2
    a = (spectrum.conj() * moment).real
    f1, e1 = _squares(first[:, kept])
    r, e = _squares(repeated[:, kept])
    columns = (grid.spacing / grid.n_points * np.stack([b * f1, a * f1 + b * e1, b * f1 * e])).T
    powers = np.empty((rows + 1, kept.size))
    powers[0] = 1.0
    powers[1:] = r
    np.cumprod(powers, axis=0, out=powers)          # row k is r^k
    stack = np.zeros((rows + 1, kept.size))
    stack[1:] = powers[:-1]
    origin = a.sum() / b.sum()                      # mean_0
    weights, means = np.empty(cycles), np.empty(cycles)
    for done in range(0, cycles, rows):
        if done:
            stack[0] = stack[rows]
            np.multiply(stack[0], powers[1:], out=stack[1:])
        size = min(rows, cycles - done)
        sums = stack[:size + 1] @ columns
        weights[done:done + size] = sums[1:, 0]
        means[done:done + size] = (sums[1:, 1] + np.arange(done, done + size) * sums[:-1, 2]
                                   ) / sums[1:, 0] - origin
    return weights, means


def couple_pointer(joint: JointSystemPointerState, op: HermitianOperator,
                   g: float) -> JointSystemPointerState:
    """Apply the impulsive measurement unitary exp(-i g op (x) p_hat).

    Each eigencomponent of `op` (its kept eigenbasis `op.eigen`) has its
    pointer factor translated by g * eigenvalue, exactly, via FFT phase
    multiplication. Rejected with WraparoundError if the largest shift
    exceeds a quarter of the grid extent (periodic wraparound would
    corrupt the record).
    """
    if op.dim != joint.system_dim:
        raise PreconditionError(
            f"dimension mismatch: operator {op.dim} vs system {joint.system_dim}"
        )
    eig = op.eigen
    phases = coupling_phases(eig, g, joint.grid, 1)
    v = eig.basis_matrix
    spectra = np.fft.fft(v.conj().T @ joint.amplitudes, axis=1)   # rows: eigencomponents
    shifted = np.fft.ifft(spectra * phases, axis=1)
    return JointSystemPointerState(joint.system_dim, joint.grid, v @ shifted)
