"""Perfectly smooth locally decodable codes: construction, verification,
and private retrieval over a simulated multi-database network.

The package namespace is lazy (PEP 562): ``import smoothldc`` loads no
submodule, and each public name imports its home module on first access,
so a process compiles only the modules it uses."""

__version__ = "0.1.0"

# public name -> home module, one line per module
_HOME = {
    **dict.fromkeys(("CodeParams", "capacity_uldc", "min_length", "min_upload_bits", "pir_capacity",
                     "symbol_and_code_rate"), "capacity"),
    **dict.fromkeys(("DecodingSuperset", "LinearCodeSpec", "from_document", "to_document"), "codespec"),
    **dict.fromkeys(("build_sldc", "decode", "encode", "enumerate_supersets", "load_fixture"), "construct"),
    **dict.fromkeys(("conditional_entropy", "distinct_information", "same_information"), "entropy"),
    **dict.fromkeys(("BitVector", "rank_words"), "gf2"),
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    # any other name, a submodule among them, gets the default error, so
    # `from smoothldc import verify` still imports the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return __all__
