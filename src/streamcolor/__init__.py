"""Semi-streaming vertex coloring toolkit.

One-pass randomized coloring within (1+eps)*Delta colors, multi-pass degree
peeling with an implicit acyclic orientation, and (2+eps)*alpha coloring for
graphs of bounded arboricity, plus stream primitives with strict pass and
space accounting, seeded corpus generators, and offline oracles.

Each name is imported from the module that defines it, for example
``from streamcolor.delta_color import run_delta_coloring``; importing the
package itself loads none of its modules.
"""

__version__ = "0.1.0"
