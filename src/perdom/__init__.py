"""Exact cohomology tables of period domains over finite fields.

The engine builds the graded table of compactly supported cohomology of the
semistable locus in a flag variety attached to a quasi-split group datum and
a cocharacter class, and an independent verifier confirms the answer over
small fields by point counting, cell decomposition, and simplicial homology.
"""

from .cohom import (
    CohomologySummand,
    CohomologyTable,
    DimPoly,
    GroupData,
    assemble_cohomology,
    assemble_split_table,
    build_group_data,
    dim_induced,
    dim_v,
    euler_characteristic,
    lefschetz_series,
    minimal_I,
    omega_I,
)
from .galois import GaloisAction, build_galois_action, delta_orbits, gamma_e, weyl_orbits
from .rootdata import (
    LatticeVec,
    RootDatum,
    build_root_datum,
    character,
    cocharacter,
    fundamental_weights,
    pairing,
)
from .semistable import (
    brute_force_ss_count,
    build_verifier,
    bruhat_cells_check,
    filtration_pairing,
    is_semistable,
    slope,
    subspace_coweight_filtration,
    y_I_points,
)
from .weyl import WeylElement, WeylGroup, act, generate_weyl, kostant_reps, stabilizer_w_mu

__version__ = "0.1.0"
