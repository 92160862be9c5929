"""Controllability of right-invariant bilinear systems via permutation orbits.

The library decides controllability for systems on SO(n), for multi-agent
formation networks, and for symmetric Markov chains by merging the index
pairs of the control fields into an orbit partition; the system is
controllable exactly when all letters merge into a single orbit.  Every
verdict can be cross-checked against an exact-arithmetic Lie-algebra rank
oracle, and the orbit structure doubles as a componentwise description of
the controllable submanifold and as the connected components of the control
graph.

``import ctrlperm`` loads only ``_version``.  Each public name, and each
of the submodules ``graphview``, ``liealg``, ``monoid``, ``permutation``
and ``systems``, is imported on first access, so a program that only
merges orbits never compiles the oracle (``liealg``) or loads
``fractions``.  Nor does it compile ``permutation``, which loads with
subgroup orders or the absorbing product, ``graphview``, which loads
with the first control graph, or ``_rationals``, which loads with
``fractions`` and the first markov ``initial_distribution``, probe
document or string matrix entry.  ``ctrlperm.cli`` compiles what a plain JSON ``analyze`` runs;
its other commands (``_commands``) and its ``--text`` layout
(``_textreport``) load with their first use.
"""

import importlib

from ._version import __version__

# every public name once, under the submodule that defines it
_OWNERS = {
    "permutation": (
        "CycleDecomposition",
        "Permutation",
        "SubgroupSummary",
        "compose",
        "cycle_decomposition",
        "generate_subgroup",
        "identity",
        "nontrivial_orbits",
        "transposition",
        "transposition_product",
    ),
    "monoid": (
        "OrbitPartition",
        "UnionFind",
        "absorbing_product",
        "orbit_partition",
        "partition_from_pairs",
    ),
    "liealg": (
        "ExactMatrix",
        "LinearSpan",
        "SignedBasisTerm",
        "basis_bracket",
        "bracket",
        "coupling_generator",
        "lie_closure",
        "rotation_generator",
    ),
    "systems": (
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
    ),
    "graphview": (
        "ControlGraph",
        "components",
        "control_graph",
        "is_connected",
        "to_dot",
    ),
}
_OWNER_OF = {name: module for module, names in _OWNERS.items() for name in names}

__all__ = ["__version__", *_OWNER_OF]


def __getattr__(name):
    # PEP 562: called only for names not yet in the module's namespace
    if name in _OWNERS:
        # importing a submodule binds it here as well
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_OWNERS})
