"""Exact computations with tau_2-tilting modules, torsion pairs and
2-cluster-tilting subcategories over bound quiver algebras.

The package exports the six names of the README's library example; every
other name is imported from its module (`taukit.modcat`, `taukit.arknit`, ...).
"""

from .algebra import parse_algebra
from .arknit import knit_indecomposables
from .highercat import Subcat, is_d_cluster_tilting
from .tautilt import verify_theorem1
from .torsion import enumerate_2ff_torsion_pairs
