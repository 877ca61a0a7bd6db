"""The repo benchmark harness (see bench/README.md).

A package only so that ``bench/trace.py`` is imported as ``bench.trace``
and never shadows the standard library's ``trace`` module.
"""
