"""Deterministic W-state preparation via a three-qubit expansion operation.

The package simulates and verifies a mediated-entanglement protocol: a
12-gate circuit on (input1, ancilla, input2) that creates W-type Bell
pairs, grows W states one qubit at a time, and doubles |W_n> to |W_2n>,
plus the fidelity analysis of coherent gate imperfections and the cavity
reflection model realizing the required controlled-Z gate.
"""
from .cavity import (
    CavityParams,
    CzQuality,
    PhasePair,
    cz_quality,
    phase_pair,
    reflection_coupled,
    reflection_uncoupled,
)
from .gates import (
    Gate,
    HADAMARD_ANGLE,
    HolonomicParams,
    NoiseParams,
    T_PRIME_ANGLE,
    controlled_phase,
    hadamard,
    holonomic_gate,
    hwp_gate,
    phase_aligned_deviation,
    rotation_gate,
    t_prime,
)
from .noise import (
    FidelitySweep,
    doubling_overlap_fidelity,
    fidelity_combined,
    fidelity_controlled_phase,
    fidelity_hadamard,
    fidelity_t_prime,
    sweep,
)
from .statevec import (
    DensityMatrix,
    QubitPermutation,
    StateVector,
    apply_unitary,
    basis_state,
    fidelity_pure,
    partial_trace,
    permute,
    tensor,
    zero_state,
)
from .wcircuit import (
    AncillaStateError,
    DOUBLING_MAX_N,
    EXPANSION_LAYOUT,
    EXPANSION_MATRIX,
    PHOTON,
    SPIN,
    ExpansionCircuit,
    QubitRole,
    RunReport,
    apply_O,
    build_w_state,
    create_epr,
    double_w,
    expand_by_one,
    expansion_maps,
    interleave_permutation,
    relabel,
    standard_expansion_circuit,
)

__version__ = "0.1.0"
