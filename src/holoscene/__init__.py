"""holoscene: imagined scene graphs from short English texts.

The library parses simple sentences into actor/action/object structures,
anchors them to a co-occurrence ontology, blends the per-sentence spaces
through graph confabulation, and emits an ordered scene script. Structured
encodings ride on holographic vectors (circular convolution/correlation),
and a decaying concept memory tracks what the pipeline has seen.

Typical use::

    from holoscene import PipelineConfig, run_pipeline

    blend, script, diagnostics = run_pipeline(
        PipelineConfig(), "A woman walks on the beach.",
        ontology_path="demo.graph",
    )
"""

from .blending import (
    BlendedSpace,
    GenericSpace,
    confabulate,
    decode_probe,
    encode_subgraph,
    generic_space,
    transition_probability,
)
from .hrr import Codebook, cleanup, convolve, correlate, random_vector, similarity, superpose
from .memory import ConceptNode, HolographicMemory, Level, Signature
from .ontology import (
    DkStatistics,
    OntologyGraph,
    TermObjectMap,
    ValueMap,
    build_from_corpus,
    expand,
    extract_dk,
    load_graph,
    save_graph,
)
from .pipeline import PipelineConfig, load_config, run_pipeline
from .scenario import ActorFunction, Scene, SceneScript, plan_scenario
from .textfilter import MentalSpace, UniversalStructure, build_mental_space, parse_sentence, parse_text

__version__ = "0.1.0"

__all__ = [
    "ActorFunction",
    "BlendedSpace",
    "Codebook",
    "ConceptNode",
    "DkStatistics",
    "GenericSpace",
    "HolographicMemory",
    "Level",
    "MentalSpace",
    "OntologyGraph",
    "PipelineConfig",
    "Scene",
    "SceneScript",
    "Signature",
    "TermObjectMap",
    "UniversalStructure",
    "ValueMap",
    "build_from_corpus",
    "build_mental_space",
    "cleanup",
    "confabulate",
    "convolve",
    "correlate",
    "decode_probe",
    "encode_subgraph",
    "expand",
    "extract_dk",
    "generic_space",
    "load_config",
    "load_graph",
    "parse_sentence",
    "parse_text",
    "plan_scenario",
    "random_vector",
    "run_pipeline",
    "save_graph",
    "similarity",
    "superpose",
    "transition_probability",
]
