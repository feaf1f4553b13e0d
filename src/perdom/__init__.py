"""Exact cohomology tables of period domains over finite fields.

The engine builds the graded table of compactly supported cohomology of the
semistable locus in a flag variety attached to a quasi-split group datum and
a cocharacter class, and an independent verifier confirms the answer over
small fields by point counting, cell decomposition, and simplicial homology.
"""

__version__ = "0.1.0"
