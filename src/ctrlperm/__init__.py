"""Controllability of right-invariant bilinear systems via permutation orbits.

The library decides controllability for systems on SO(n), for multi-agent
formation networks, and for symmetric Markov chains by merging the index
pairs of the control fields into an orbit partition; the system is
controllable exactly when all letters merge into a single orbit.  Every
verdict can be cross-checked against an exact-arithmetic Lie-algebra rank
oracle, and the orbit structure doubles as a componentwise description of
the controllable submanifold and as the connected components of the control
graph.
"""

from ._version import __version__
from .graphview import ControlGraph, components, control_graph, is_connected, to_dot
from .liealg import (
    ExactMatrix,
    LinearSpan,
    SignedBasisTerm,
    basis_bracket,
    bracket,
    circulation_generator,
    coupling_generator,
    lie_closure,
    rotation_generator,
)
from .monoid import (
    OrbitPartition,
    UnionFind,
    absorbing_compose,
    absorbing_product,
    orbit_partition,
    partition_from_pairs,
)
from .permutation import (
    CycleDecomposition,
    Permutation,
    SubgroupSummary,
    compose,
    cycle_decomposition,
    generate_subgroup,
    identity,
    is_k_cycle,
    nontrivial_orbits,
    transposition,
    transposition_product,
)
from .systems import (
    FAMILIES,
    ControllabilityReport,
    NonstandardProbeResult,
    OracleResult,
    OracleSizeError,
    SubmanifoldComponent,
    SubmanifoldDescription,
    SystemSpec,
    analyze,
    min_controls_check,
    oracle_check,
    probe_nonstandard,
)

__all__ = [
    "__version__",
    "CycleDecomposition",
    "Permutation",
    "SubgroupSummary",
    "compose",
    "cycle_decomposition",
    "generate_subgroup",
    "identity",
    "is_k_cycle",
    "nontrivial_orbits",
    "transposition",
    "transposition_product",
    "OrbitPartition",
    "UnionFind",
    "absorbing_compose",
    "absorbing_product",
    "orbit_partition",
    "partition_from_pairs",
    "ExactMatrix",
    "LinearSpan",
    "SignedBasisTerm",
    "basis_bracket",
    "bracket",
    "circulation_generator",
    "coupling_generator",
    "lie_closure",
    "rotation_generator",
    "FAMILIES",
    "ControllabilityReport",
    "NonstandardProbeResult",
    "OracleResult",
    "OracleSizeError",
    "SubmanifoldComponent",
    "SubmanifoldDescription",
    "SystemSpec",
    "analyze",
    "min_controls_check",
    "oracle_check",
    "probe_nonstandard",
    "ControlGraph",
    "components",
    "control_graph",
    "is_connected",
    "to_dot",
]
