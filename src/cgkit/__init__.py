"""Chain graphs with two separation semantics, deterministic nodes, error
augmentation, selection-node conversion, marginalization, full independence
models, and linear-Gaussian verification."""

from importlib import import_module

__version__ = "0.1.0"

# Every public name loads its module on first use (PEP 562), so a one-shot
# command compiles only the layers it runs.  The Gaussian layer is the only
# one that needs numpy, and it stays out of ``from cgkit import *``.
_EXPORTS = {
    "determinism": ("DeterminationTable", "determined_set", "eamp_rules"),
    "errors": ("CgkitError", "GuardError", "NumericError", "ParseError", "QueryError",
               "StructureError"),
    "fileformat": ("parse", "serialize"),
    "graph": ("ERROR", "SELECTION", "VARIABLE", "ChainGraph", "component_topological_order",
              "components", "error_name", "find_flags", "parents", "selection_name",
              "strict_ascendants", "validate"),
    "models": ("IndependenceModel", "enumerate_model", "model_diff", "project_model",
               "random_cg", "triple_count"),
    "separation": ("AMP", "LWF", "SeparationQuery", "amp_separated", "amp_separated_oracle",
                   "amp_witness", "determined_query_nodes", "effective_conditioning",
                   "lwf_route_oracle", "lwf_separated", "lwf_witness", "separated"),
    "transforms": ("EampGraph", "eamp_from_graph", "marginalize_eamp", "to_eamp",
                   "to_selection_dag"),
    "gaussian": ("ComponentBlock", "GaussianSystem", "MarkovReport", "joint_covariance",
                 "joint_covariance_oracle", "markov_check", "partial_correlation",
                 "sample_system"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [name for name, module in _MODULE_OF.items() if module != "gaussian"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(import_module(f"{__name__}.{module}"), name)
    if name in _EXPORTS:  # cgkit.models and the like, as an eager import bound them
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
