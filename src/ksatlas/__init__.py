"""Toolkit for the compatibility-graph view of Bell and Kochen-Specker
measurement scenarios: exact classical bounds and facet verdicts, graph
invariants of exclusivity structures, quantum models and dilations, and
the conversions that carry inequalities across the two kinds of scenario.
"""

__version__ = "0.1.0"

from . import errors
from .graphs import Graph, Partition, GraphInvariants
from .scenario import Scenario, Behavior, Inequality, build_scenario

__all__ = [
    "errors",
    "Graph",
    "Partition",
    "GraphInvariants",
    "Scenario",
    "Behavior",
    "Inequality",
    "build_scenario",
    "__version__",
]
