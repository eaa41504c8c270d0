"""Exact partition combinatorics: abacus displays, ladder regularisation,
arm-sequence crystals, the Mullineux map, and separated-partition splitting."""

from .partitions import (
    Hook,
    Partition,
    PartitionParseError,
    enumerate_partitions,
    format_partition,
    parse_partition,
    residue,
)
from .abacus import decode, e_core, e_quotient, encode
from .ladders import LadderParams, fingerprint, ladder_class, regularise, restrictise
from .crystals import ArmPrefix, CrystalGraph, apply_chain, build_graph, iso_chain
from .mullineux import james_regularise, lyle_check, mullineux, mullineux_oracle
from .separation import SplitContext, combine, paget_mu, split, verify_split

__version__ = "0.1.0"

__all__ = [
    "ArmPrefix",
    "CrystalGraph",
    "Hook",
    "LadderParams",
    "Partition",
    "PartitionParseError",
    "SplitContext",
    "apply_chain",
    "build_graph",
    "combine",
    "decode",
    "e_core",
    "e_quotient",
    "encode",
    "enumerate_partitions",
    "fingerprint",
    "format_partition",
    "iso_chain",
    "james_regularise",
    "ladder_class",
    "lyle_check",
    "mullineux",
    "mullineux_oracle",
    "paget_mu",
    "parse_partition",
    "regularise",
    "residue",
    "restrictise",
    "split",
    "verify_split",
]
