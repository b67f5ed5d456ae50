"""Weighted Wiener indices on graphs, closed forms for the extremal unicyclic
families, and exhaustive verification of the sharp bounds at small n.

The root holds only ``__version__``; the API lives in the submodules
(``from wienerbounds.graphs import Graph``), so an import loads what it names.
"""

__version__ = "0.1.0"
