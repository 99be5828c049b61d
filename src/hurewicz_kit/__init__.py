"""Finite-depth combinatorics of a prime-power coded product space.

Building blocks: the coding of finite sequences into prime-power products and
its factorization inverse; the finite level alphabets and node enumeration of
the induced product space; coordinate-rewriting partial homeomorphisms with
clopen cylinder domains; the relation/forest machinery they induce on nodes;
index-substitution self-maps of the binary sequence space; and an exact
rational checker for the metric cascade arithmetic.  Batch verification
suites with reproducible JSON reports live in :mod:`hurewicz_kit.verifier`;
the command line front end in :mod:`hurewicz_kit.cli`.
"""

from .base import CapacityError, DomainError, HorizonError, Tri
from .prime_coding import (
    MATERIALIZE_BITS,
    SymbolicCode,
    decode,
    encode,
    factored_str,
    is_code,
    make_code_value,
    nth_prime,
    render_value,
)
from .alphabet import (
    ALL_ONES,
    DEFAULT_DEPTH_CAP,
    NODE_COUNT_CAP,
    PointPrefix,
    alphabet_at,
    alphabets,
    enumerate_nodes,
    first_disagreement,
    lex_compare,
    member_cmp,
    member_valid,
    node_count,
    node_valid,
    point_from_node,
)
from .departure import (
    BranchIndex,
    CylinderConstraint,
    apply,
    apply_fn,
    apply_inverse,
    branches_within,
    constraints,
    e,
    e_inv,
    find_branch,
    in_domain,
)
from .relations import (
    EffectiveWitness,
    PsiResult,
    RelationGraph,
    psi,
    rel_R,
    rel_witnesses,
    self_related_profile,
    t_chain,
    t_graph,
    verify_forest,
)
from .good_sequence import (
    BitPrefix,
    IndexMap,
    convergence_bound,
    disagreement_witness,
    h_eval,
    sigma,
)
from .cascade import (
    CascadeSample,
    check_admissibility,
    check_separation,
    check_separation_all,
    epsilon,
    gen_cascade,
)

__version__ = "0.1.0"
