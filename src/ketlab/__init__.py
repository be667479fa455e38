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
the modules it runs. The package itself defines what the numpy-free command
layer shares with the modules: `record`, and the protection run's defaults.
"""

__version__ = "0.1.0"

DEFAULT_GRID_POINTS = 512
DEFAULT_STEPS = 400          # protection cycles of a protective run
DEFAULT_COUPLING = 5e-3      # coupling strength g per protection cycle

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
    "ontology": "MonteCarloReport OntologicalModel ViolationBound born_consistency_gap "
                "build_shared_reality_model monte_carlo_onto orthodox_model overlap "
                "paired_shared_reality_model pbr_min_violation predict qubit_scenario",
    "pbr": "PREPARATION_IDS PbrCounts SteeringSample SteeringTable epr_steering "
           "overlap_preservation_check pbr_experiment pbr_scenario preparation_states "
           "steering_table",
    "protective": "LeakResult ProtectiveRunResult protection_leak protective_measure "
                  "protective_tomography reconstruct_state",
    "rngs": "SubstreamSampler substream",
    "weak": "direct_wavefunction_scan momentum_zero_amplitude weak_pointer_shift",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = tuple(_MODULE_OF)


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


def record(cls):
    """Make `cls` a frozen record of the fields its own body annotates.

    The fields, in order, become `__match_args__`. The new `__init__` takes
    them by position or keyword, fills the rest from class-level defaults,
    raises TypeError on a missing, unknown or repeated field, and then
    runs `__post_init__`, which may check the fields and replace them
    through `object.__setattr__`. Assigning or deleting an attribute raises
    AttributeError. Equality, hash and repr stay `object`'s, and instances
    keep a `__dict__` for `cached_property`. Nothing is written out as
    source and compiled, so decorating a class costs microseconds.
    """
    names = tuple(cls.__annotations__)
    if not names:
        raise TypeError(f"{cls.__name__} annotates no fields")
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", lambda self: None)
    # after k positional arguments: the fields left, and the keywords a call may pass
    tails = tuple((names[k:], frozenset(names[k:])) for k in range(len(names) + 1))

    def __init__(self, *args, **kwargs):
        rest = {**defaults, **kwargs}
        try:
            wanted, allowed = tails[len(args)]          # IndexError: too many by position
            if not kwargs.keys() <= allowed:
                raise KeyError("an unknown or repeated field")
            args += tuple(map(rest.__getitem__, wanted))   # KeyError: a missing field
        except (IndexError, KeyError):
            raise TypeError(
                f"{cls.__name__}{names}: {len(args)} by position, {list(kwargs)}"
            ) from None
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        post_init(self)

    cls.__init__, cls.__match_args__ = __init__, names
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


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
