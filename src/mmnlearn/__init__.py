"""Active learning of Moore machines and Moore machine networks."""

from .alphabet import Alphabet, product_alphabet, unit_alphabet
from .machine import (
    Counterexample,
    DetMoore,
    EQUIVALENT,
    NondetMoore,
    StatePartition,
    det_run,
    equivalent,
    identity_partition,
    nd_semantics,
    partition_eq_k,
    partition_uni,
    quotient,
    reachable,
    wrap_nondet,
)
from .network import InducedMoore, Mmn, Network, validate
from .oracles import EqTestConfig, QueryStats, Sul
from .table import ObservationTable
from .lstar import lstar
from .componentwise import CaBlowupError, CaParams, LearnedSystem, ccwl, cwl, mnl
from . import benchmarks, harness, serialize

__all__ = [
    "Alphabet", "product_alphabet", "unit_alphabet",
    "Counterexample", "DetMoore", "EQUIVALENT", "NondetMoore", "StatePartition",
    "det_run", "equivalent", "identity_partition",
    "nd_semantics", "partition_eq_k", "partition_uni", "quotient", "reachable",
    "wrap_nondet",
    "InducedMoore", "Mmn", "Network", "validate",
    "EqTestConfig", "QueryStats", "Sul",
    "ObservationTable", "lstar",
    "CaBlowupError", "CaParams", "LearnedSystem", "ccwl", "cwl", "mnl",
    "benchmarks", "harness", "serialize",
]

__version__ = "0.1.0"
