"""rank3: affine rank-3 graph constructions and automorphism-group verification.

Subpackages:
    gf        finite field GF(p^d) arithmetic with canonical element numbering
    graphs    dense graph container, strongly-regular parameter checks, graph6 output
    families  Cayley / forms / orbital graph constructions and their zero-stabilizers
    permgrp   permutations, Schreier-Sims machinery, matrix groups acting on vectors
    autsolve  automorphism group and isomorphism solver (refinement + IR search)
    catalog   curated verification targets and the end-to-end check pipeline
"""

__version__ = "0.1.0"
