"""The performance ledger: one seeded end-to-end benchmark of the whole
pipeline, with per-layer attribution measured from outside.

Run it with ``python -m benchmarks.ledger`` (see README.md here).
"""
