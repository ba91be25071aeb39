"""Desk-scale computational algebra workbench for finite commutative ternary
gamma-semirings given as explicit operation tables."""

from .core import (AxiomReport, BudgetError, FiniteTernaryGammaSemiring,
                   FixtureError, PreconditionError, Violation, WorkbenchError,
                   check_axioms, load_structure, serialize_structure, tri_eval)
from .ideals import (IdealSet, LocalizedSemiring, SpectrumSpace,
                     enumerate_ideals, gelfand_injectivity, ideal_closure,
                     is_prime, localize, spectrum, zariski_report)
from .modules import (GammaModule, ModuleCongruence, ModuleHom, annihilator,
                      bourne_quotient, check_module_axioms,
                      cyclic_module_catalog, density_check, direct_sum,
                      end_semiring, enumerate_submodules, hom_set, is_faithful,
                      is_simple, iso_theorem_suite,
                      jacobson_radical, load_module, regular_module,
                      serialize_module, zero_module)
from .homology import (FreeResolution, MonoidPresentation, adjunction_check,
                       ext1, free_module, free_resolution,
                       homological_semisimplicity, internal_hom_ternary,
                       tensor, tor1)
from .geometry import (SpectrumGraph, ValuationTable, embed, export_graph,
                       fuzzy_weights, jacobi_eigh, metric_matrix)

__version__ = "0.1.0"
