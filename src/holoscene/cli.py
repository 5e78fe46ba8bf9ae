"""Command-line interface.

Subcommands:

* ``build-ontology <corpus_dir> -o <graph_file>`` -- scan a directory of
  plain-text documents into a graph file with word statistics.
* ``imagine <text_file> --ontology <graph_file> [-o script.json]`` -- run
  the whole pipeline and write the scene script (optionally the blend,
  a DOT rendering and a memory snapshot).
* ``inspect-memory <snapshot>`` -- summarize a saved concept memory.
* ``export-dot <graph_file|blend_file> [-o out.dot]`` -- render either
  file kind to DOT (a file that starts with the blend header is a blend
  and gets provenance colors).

Only ``imagine`` takes ``--config FILE`` and ``--seed N``; ``HOLOSCENE_SEED``
and the ``HOLOSCENE_OBJECTS/VALUES/FUNCTIONS`` environment variables
override paths and seed between config file and flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from . import blending, memory, ontology, pipeline
from .errors import (
    EmptyTextError,
    GraphFormatError,
    HolosceneError,
    StageError,
    UnparseableSentenceError,
    read_text,
)


def _resolve_config(args) -> pipeline.PipelineConfig:
    config = pipeline.load_config(args.config) if args.config else pipeline.PipelineConfig()
    config = pipeline.apply_env_overrides(config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoscene",
        description="Imagined scene scripts from short English texts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build-ontology", help="build a graph file from a corpus directory")
    p_build.add_argument("corpus_dir")
    p_build.add_argument("-o", "--output", required=True, metavar="GRAPH_FILE")

    p_imagine = sub.add_parser("imagine", help="turn a text file into a scene script")
    p_imagine.add_argument("text_file")
    p_imagine.add_argument("--ontology", required=True, metavar="GRAPH_FILE")
    p_imagine.add_argument("-o", "--output", metavar="SCRIPT_JSON")
    p_imagine.add_argument("--blend-out", metavar="BLEND_FILE", help="also write the blended space")
    p_imagine.add_argument("--dot-out", metavar="DOT_FILE", help="also write a colored DOT of the blend")
    p_imagine.add_argument("--memory-out", metavar="SNAPSHOT", help="also write the concept memory snapshot")
    p_imagine.add_argument("-v", "--verbose", action="store_true", help="print diagnostics")
    p_imagine.add_argument("--config", metavar="FILE", help="key = value configuration file")
    p_imagine.add_argument("--seed", type=int, help="override the random seed")

    p_mem = sub.add_parser("inspect-memory", help="summarize a memory snapshot")
    p_mem.add_argument("snapshot")

    p_dot = sub.add_parser("export-dot", help="render a graph or blend file to DOT")
    p_dot.add_argument("input_file")
    p_dot.add_argument("-o", "--output", metavar="DOT_FILE")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The :func:`build_parser` parser of :func:`main`, built once per
    process: parsing leaves it as it was."""
    return build_parser()


def _cmd_build_ontology(args) -> int:
    graph, dk = pipeline.build_ontology(args.corpus_dir)
    ontology.save_graph(graph, args.output, dk)
    print(f"wrote {args.output}: {len(graph)} nodes, {graph.edge_count} edges")
    return 0


def _cmd_imagine(args) -> int:
    config = _resolve_config(args)
    text = read_text(args.text_file)
    try:
        blend, script, diagnostics = pipeline.run_pipeline(
            config, text, ontology_path=args.ontology
        )
    except EmptyTextError as exc:
        raise GraphFormatError(args.text_file, None, exc) from exc
    except StageError as exc:
        if not isinstance(exc.cause, UnparseableSentenceError):
            raise
        where = GraphFormatError(args.text_file, exc.cause.line_no, exc.cause)
        raise StageError(exc.stage, where) from exc
    output = args.output or str(Path(args.text_file).with_suffix(".script.json"))
    script.save(output)
    if args.blend_out:
        blending.save_blend(blend, args.blend_out)
    if args.dot_out:
        Path(args.dot_out).write_text(blending.blend_to_dot(blend), encoding="utf-8")
    if args.memory_out:
        diagnostics.memory.save(args.memory_out)
    if args.verbose:
        for line in diagnostics.summary_lines():
            print(line, file=sys.stderr)
    confabulated = ", ".join(sorted(blend.by_provenance(blending.CONFABULATED))) or "(none)"
    print(f"wrote {output}: {len(script.scenes)} scenes, blend of {len(blend.terms)} terms")
    print(f"imagined beyond the text: {confabulated}")
    return 0


def _cmd_inspect_memory(args) -> int:
    mem = memory.HolographicMemory.load(args.snapshot)
    print(f"clock {mem.clock}, {len(mem.nodes)} nodes "
          f"(window {mem.time_window}, prune threshold {mem.prune_threshold})")
    for node_id in sorted(mem.nodes):
        node = mem.nodes[node_id]
        newest = max((s.recorded_at for s in node.signatures), default=0)
        intensity = max((memory.intensity(s, mem.clock) for s in node.signatures), default=0.0)
        print(
            f"  {node_id:12s} {node.level.value:9s} connections={node.connection_count} "
            f"signatures={len(node.signatures)} newest@{newest} intensity={intensity:.3f}"
        )
    return 0


def _cmd_export_dot(args) -> int:
    header = blending.BLEND_HEADER.encode()
    with open(args.input_file, "rb") as file:  # the loader decodes the file, and names a line that is not UTF-8
        is_blend = file.read(len(header)) == header
    if is_blend:
        dot = blending.blend_to_dot(blending.load_blend(args.input_file))
    else:
        graph, _ = ontology.load_graph(args.input_file)
        dot = ontology.to_dot(graph)
    if args.output:
        Path(args.output).write_text(dot, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(dot, end="")
    return 0


_COMMANDS = {
    "build-ontology": _cmd_build_ontology,
    "imagine": _cmd_imagine,
    "inspect-memory": _cmd_inspect_memory,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except HolosceneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
