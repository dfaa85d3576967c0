"""Exact solvers and verifiers for compromise games on the line.

Players hold fixed rational beliefs on the real line and each expresses an
opinion; a player's cost is the largest distance from her opinion to her own
belief and to the opinions of the k players whose opinions lie closest to her
belief.  The package verifies pure and finite-support mixed Nash equilibria
exactly, solves the k=1 case completely via a segment DAG, brackets the
optimal social cost with closed-form lower bounds and a heuristic upper
bound, and ships a catalog of benchmark instances with known values.

The check API is two functions.  :func:`check_pure` decides a pure vector in
one pass: the verdict with each violator's best reply, every player's cost,
the social cost and the structure flags.  :func:`check_mixed` decides a
finite-support profile in one enumeration: the verdict, the expected player
and social costs and every player's best deterministic deviation.
:func:`is_pure_nash` and :func:`social_cost` are the two views of
:func:`check_pure`.

Every check and solver works on the pure-Python integer core of
:mod:`kcof._accel` (``kernel_backend`` is always ``"python"``), which defines
the neighbour tie rule (:func:`kcof._accel.ranked`) and the span of a
player's belief and chosen neighbours (:func:`kcof._accel.span`) once.  Every
check and solver reads the integer beliefs of :attr:`GameInstance.s_int`,
made once per instance at its scale by :func:`kcof.rationals.as_scaled`.
"""

from .bounds import (
    PoaBracket,
    eta,
    opt_lower_bound_1,
    opt_lower_bound_k,
    pne_player_cost_cap,
    pne_player_cost_cap_1,
    poa_bracket,
    star_window,
)
from .catalog import CatalogEntry, ReferenceVector, catalog, catalog_entry, verify_entry
from .game import (
    DynamicsResult,
    GameInstance,
    PureCheck,
    PureVerdict,
    StructureReport,
    Violation,
    as_opinions,
    best_response_dynamics,
    check_pure,
    is_pure_nash,
    social_cost,
)
from .instance_io import InstanceDocument, InstanceFormatError, load_instance, write_instance
from .mixed import (
    MAX_WORK,
    MixedCheck,
    MixedVerdict,
    MixedViolation,
    as_randomized,
    check_mixed,
)
from .optimize import optimize_social_cost
from .segments import (
    Segment,
    SegmentGraph,
    best_pne,
    brute_force_pne_oracle,
    build_segment,
    build_segment_graph,
    enumerate_pne,
    exists_pne,
    to_dot,
    worst_pne,
)

__version__ = "0.1.0"
kernel_backend = "python"
