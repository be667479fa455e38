"""Postselected weak readouts and the direct wavefunction scan.

A weak value <post|A|pre> / <post|pre> is what a feebly coupled pointer
records, to first order in the coupling, when the system is preselected in
|pre> and postselected in |post>. Unlike an expectation value it is complex
and can lie far outside the spectrum of A; the imaginary part shows up in
the pointer momentum rather than its position. `weak_pointer_shift`
simulates that readout; the formula itself is the tests' oracle.

The direct scan reads a wavefunction off a grid one cell at a time: the
weak value of the cell projector at x (the discrete stand-in for |x><x|,
weighted 1/spacing) with postselection on the zero-momentum state is
proportional to psi(x) itself, with a single x-independent constant
<p=0|psi>. Both quadratures of psi are recovered pointwise.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    PostselectionError,
    PreconditionError,
    ScanUndefinedError,
    UndefinedWeakValueError,
)
from .hilbert import HermitianOperator, StateVector, inner_product
from .measurement import (
    GridWavefunction,
    PointerGrid,
    coupling_phases,
    make_pointer,
    postselected_cycles,
    postselected_multiplier,
)

OVERLAP_TOL = 1e-12          # |<post|pre>| below this: weak value undefined
MOMENTUM_ZERO_TOL = 1e-10    # |<p=0|psi>| below this: scan undefined
POSTSELECT_PROB_TOL = 1e-15  # simulated postselection probability floor


def _checked_selection(op: HermitianOperator, pre: StateVector, post: StateVector) -> None:
    """PreconditionError unless op, pre and post share one dimension, and
    UndefinedWeakValueError when <post|pre> is numerically zero (the weak
    value would then be dominated by noise, not physics)."""
    if not (op.dim == pre.dim == post.dim):
        raise PreconditionError(
            f"dimension mismatch: op {op.dim}, pre {pre.dim}, post {post.dim}"
        )
    overlap = inner_product(post, pre)
    if abs(overlap) <= OVERLAP_TOL:
        raise UndefinedWeakValueError(
            f"pre/postselection overlap magnitude {abs(overlap):.3e} <= {OVERLAP_TOL}; "
            "weak value undefined"
        )


def momentum_zero_amplitude(psi: GridWavefunction) -> complex:
    """<p=0|psi> up to grid normalization: sum of psi(x) * spacing."""
    return complex(np.sum(psi.amplitudes) * psi.grid.spacing)


def direct_wavefunction_scan(psi: GridWavefunction) -> np.ndarray:
    """Weak value of the grid-cell projector at each x, postselected on p = 0.

    Returns psi(x) / <p=0|psi>: the wavefunction itself, divided by one
    x-independent constant. Multiplying back by `momentum_zero_amplitude`
    recovers psi exactly on the grid. Undefined (rejected) when the
    zero-momentum component vanishes, e.g. for odd wavefunctions.
    """
    p0 = momentum_zero_amplitude(psi)
    if abs(p0) <= MOMENTUM_ZERO_TOL:
        raise ScanUndefinedError(
            f"zero-momentum component magnitude {abs(p0):.3e} <= {MOMENTUM_ZERO_TOL}; "
            "scan undefined"
        )
    return psi.amplitudes / p0


def weak_pointer_shift(psi: StateVector, op: HermitianOperator, post: StateVector,
                       g: float, grid: PointerGrid, width: float) -> tuple[float, float]:
    """Simulated postselected pointer readout.

    Couples a fresh Gaussian pointer to `op` with strength g, postselects
    the system on |post>, and returns (conditional pointer mean shift,
    postselection success probability). As g -> 0 the shift approaches
    g * Re(weak value).

    This is exactly one cycle of the protective engine: the pointer's
    spectrum is multiplied once by M(p) = sum_j <post|v_j><v_j|psi>
    exp(-i g a_j p), and `postselected_cycles`, the kernel the protective
    runs read their cycles with, reads a run of one cycle from M and its
    p-derivative in momentum space: the probability by Parseval, the mean
    by x <-> i d/dp. Neither the joint system+pointer state nor the
    postselected pointer is built.
    """
    _checked_selection(op, psi, post)
    pointer = make_pointer(grid, width)
    eig = op.eigen
    multiplier = postselected_multiplier(eig, g, coupling_phases(eig, g, grid, 1),
                                         post.amplitudes, psi.amplitudes)
    (prob,), (mean,) = postselected_cycles(pointer, multiplier, multiplier, 1)
    if prob < POSTSELECT_PROB_TOL:
        raise PostselectionError(
            f"postselection probability {prob:.3e} below {POSTSELECT_PROB_TOL}; "
            "conditional statistics undefined"
        )
    return float(mean), float(prob)
