"""Benchmarks regenerating the paper's tables and figures.

A package so that pytest and the benchmark modules importing
``benchmarks.conftest.save_report`` share one conftest module, and with it
the session's output location.
"""
