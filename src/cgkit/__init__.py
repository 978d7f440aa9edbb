"""Chain graphs with two separation semantics, deterministic nodes, error
augmentation, selection-node conversion, marginalization, full independence
models, and linear-Gaussian verification."""

from .determinism import DeterminationTable, determined_set, eamp_rules
from .errors import (
    CgkitError,
    GuardError,
    NumericError,
    ParseError,
    QueryError,
    StructureError,
)
from .fileformat import parse, serialize
from .graph import (
    ERROR,
    SELECTION,
    VARIABLE,
    ChainGraph,
    component_topological_order,
    components,
    error_name,
    find_flags,
    parents,
    selection_name,
    strict_ascendants,
    validate,
)
from .models import (
    IndependenceModel,
    enumerate_model,
    model_diff,
    project_model,
    random_cg,
    triple_count,
)
from .separation import (
    AMP,
    LWF,
    SeparationQuery,
    amp_separated,
    amp_separated_oracle,
    amp_witness,
    determined_query_nodes,
    effective_conditioning,
    lwf_route_oracle,
    lwf_separated,
    lwf_witness,
    separated,
)
from .transforms import EampGraph, eamp_from_graph, marginalize_eamp, to_eamp, to_selection_dag

__version__ = "0.1.0"

# The Gaussian layer is the only one that needs numpy; it loads on first use,
# so the graph-to-graph commands start without it.
_GAUSSIAN = (
    "ComponentBlock",
    "GaussianSystem",
    "MarkovReport",
    "joint_covariance",
    "joint_covariance_oracle",
    "markov_check",
    "partial_correlation",
    "sample_system",
)


def __getattr__(name):
    if name in _GAUSSIAN:
        from . import gaussian

        return getattr(gaussian, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_GAUSSIAN))
