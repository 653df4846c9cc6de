"""Mergeable relational store with policy-annotated schemas.

Rows are built from merge-friendly replicated values, tables carry
concurrency policies, and a deterministic simulator drives multi-replica
schedules for testing. The package root exports nothing: import each name
from its submodule.
"""

__version__ = "0.1.0"
