"""Active learning of Moore machines and Moore machine networks."""

from .alphabet import Alphabet, product_alphabet
from .machine import (
    Counterexample,
    DetMoore,
    EQUIVALENT,
    StatePartition,
    equivalent,
    partition_eq_k,
    partition_uni,
)
from .network import InducedMoore, Mmn, Network
from .oracles import EqTestConfig, QueryStats, Sul
from .table import ObservationTable
from .lstar import lstar
from .componentwise import CaBlowupError, CaParams, LearnedSystem, ccwl, cwl, mnl
from . import benchmarks, harness, serialize

__all__ = [
    "Alphabet", "product_alphabet",
    "Counterexample", "DetMoore", "EQUIVALENT", "StatePartition",
    "equivalent", "partition_eq_k", "partition_uni",
    "InducedMoore", "Mmn", "Network",
    "EqTestConfig", "QueryStats", "Sul",
    "ObservationTable", "lstar",
    "CaBlowupError", "CaParams", "LearnedSystem", "ccwl", "cwl", "mnl",
    "benchmarks", "harness", "serialize",
]

__version__ = "0.1.0"
