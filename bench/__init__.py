"""One benchmark for the whole stack.

``python3 -m bench`` runs five seeded workloads, each aimed at a different
layer of the repro stack, checks every output against an independent
reference, and reports the end-to-end and per-layer metrics that
``BENCHMARK.json`` names.  See ``bench/README.md`` for the glossary.
"""
