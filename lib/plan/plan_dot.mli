(** Graphviz (DOT) rendering of plan dataflow.

    Nodes are plan operations (source queries drawn as boxes labeled
    with the source, local set operations as ellipses); edges follow
    variable definitions to their uses, so the picture is exactly the
    dependency structure of {!Plan_compile.dataflow}. Rebindings get
    unique node ids, mirroring the executor's env semantics. *)

val to_string : ?source_name:(int -> string) -> Plan.t -> string
(** A complete [digraph] document, e.g. for [dot -Tsvg]. *)
