"""ketlab: a desk-scale quantum measurement laboratory.

Simulations probing what a quantum state is to a single system: protective
measurements that read expectation values off one protected qubit, weak
values and the direct wavefunction scan they enable, the four-state
antidistinguishability experiment, EPR steering on the singlet, unitarity
as an obstruction to overlap-changing measurements, and a certified search
over finite shared-reality models quantifying how badly any such model
must violate quantum predictions.

Everything is seeded and reproducible; the `ketlab` command runs each
experiment end to end and writes schema-validated artifacts.

Importing the package loads none of its modules: each public name below is
imported from its module on first use (PEP 562), so a command compiles only
the modules it runs.
"""

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "errors": "CertificationError ConfigError DegenerateInputError InternalError LabError "
              "NotPureError PostselectionError PreconditionError ScanUndefinedError "
              "UndefinedWeakValueError WraparoundError",
    "hilbert": "EigenDecomposition HermitianOperator StateVector basis_state eigendecompose "
               "equal_up_to_phase expectation haar_random_unitary inner_product ket_minus "
               "ket_one ket_plus ket_zero qubit_state sigma_x sigma_y sigma_z tensor",
    "measurement": "GridWavefunction JointSystemPointerState OutcomeSample PointerGrid "
                   "Scenario born_probabilities couple_pointer default_grid make_pointer "
                   "strong_measure",
    "ontology": "LambdaSpace MonteCarloReport OntologicalModel OverlapReport ViolationBound "
                "born_consistency_gap build_shared_reality_model monte_carlo_onto "
                "orthodox_model overlap paired_shared_reality_model pbr_min_violation "
                "predict qubit_scenario",
    "pbr": "PREPARATION_IDS PbrCounts SteeringSample SteeringTable epr_steering "
           "overlap_preservation_check pbr_experiment pbr_scenario preparation_states "
           "steering_table",
    "protective": "LeakResult ProtectiveRunResult TomographySet protection_leak "
                  "protective_measure protective_tomography reconstruct_state",
    "rngs": "SubstreamSampler substream",
    "weak": "direct_wavefunction_scan momentum_zero_amplitude weak_pointer_shift",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = tuple(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines `name` and keep the name here."""
    from importlib import import_module

    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(_MODULE_OF)
