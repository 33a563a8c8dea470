"""Perfectly smooth locally decodable codes: construction, verification,
and private retrieval over a simulated multi-database network."""

from .capacity import (
    CodeParams,
    capacity_uldc,
    min_length,
    min_upload_bits,
    pir_capacity,
    symbol_and_code_rate,
)
from .codespec import DecodingSuperset, LinearCodeSpec, from_document, to_document
from .construct import build_sldc, decode, encode, enumerate_supersets, load_fixture
from .entropy import conditional_entropy, distinct_information, same_information
from .gf2 import BitVector, rank_words

__version__ = "0.1.0"

__all__ = [
    "BitVector",
    "CodeParams",
    "DecodingSuperset",
    "LinearCodeSpec",
    "build_sldc",
    "capacity_uldc",
    "conditional_entropy",
    "decode",
    "distinct_information",
    "encode",
    "enumerate_supersets",
    "from_document",
    "load_fixture",
    "min_length",
    "min_upload_bits",
    "pir_capacity",
    "rank_words",
    "same_information",
    "symbol_and_code_rate",
    "to_document",
    "__version__",
]
