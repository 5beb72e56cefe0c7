"""Exact-arithmetic representation theory of product-model digroups.

The package computes operator tables, enveloping-algebra modules,
band-algebra comparisons, and first extension groups for digroups of the
form group x halo, entirely over the rationals (or a small prime field
for hypothesis-failure witnesses).
"""

from .linalg import (DimensionError, FieldMismatchError, Matrix, PrimeField,
                     QQ, RationalField, SubspaceError, hstack, solve,
                     span_basis, vstack)
from .digroup import (AxiomReport, Digroup, FiniteGroup, GAction,
                      GroupTableError, all_actions)
from .reps import (Representation, RepresentationError, SemilinearObject,
                   check_representation, check_semilinear, direct_sum,
                   from_semilinear, hom_rep, is_subrepresentation,
                   lambda_factorization,
                   random_representation, random_semilinear, require_valid,
                   require_valid_semilinear, rho_group_form, seeded_rng,
                   sub_quotient, to_semilinear)
from .envalg import (AlgebraError, AlgebraModule, FDAlgebra,
                     build_enveloping_algebra, build_halo_algebra,
                     check_module, check_relations, derivation_ext1,
                     module_to_rep, rep_to_module, tau_automorphism)
from .ext import (CocycleFamily, Ext1Result, MaschkeError, ShortExactSeq,
                  average_section, block_decompose, change_of_splitting_check,
                  check_cocycle, coboundary, cocycle_space, ext1_dim,
                  extension_from_cocycle, hom_rho, is_split,
                  semisimplicity_probe, short_exact)
from .halo import (BEExtResult, BEModule, HomSpaceWithAction, ext1_BE,
                   g_action_on_hom, hom_BE, induction_L, invariant_class_dim,
                   invariants, underlying_module, verify_adjunction,
                   verify_collapse)
from .demo import (demo_digroup, demo_representation, demo_ses,
                   demo_subspace_basis)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
