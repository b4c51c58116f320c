"""Graphs of hyperbinary expansions and Stern-sequence algorithms.

Import names from their modules: words, stern, graphs, blocks, iso, cli."""

__version__ = "0.1.0"
