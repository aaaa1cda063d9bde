"""Observability analysis for Boolean control networks in algebraic form.

The pipeline: compile a document straight to logical-matrix columns
(bcnio), hold them as int tuples (bcn), fold confusable state pairs into
a weighted pair graph (pairgraph), determinise reachability into partial
automata (automata), decide four notions of observability from
completeness and cycle structure (observability), and cross-check
everything by brute-force simulation over the network's maps (oracle).
bcnio and cli handle documents, DOT output, reports and the command line.
"""
