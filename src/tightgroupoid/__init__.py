"""Tight spectra and groupoids of germs for finite inverse semigroups.

The package decides, for a finite inverse semigroup with zero, whether
its groupoid of germs over the tight spectrum is Hausdorff, essentially
principal, minimal, and locally contracting, computing each verdict both
from an algebraic criterion on the semigroup and from the groupoid-level
definition, and asserting that the two agree.
"""

from .action import (
    ContractionVerdict,
    FiniteAction,
    OrbitPartition,
    fixed_points,
    is_free,
    is_irreducible,
    is_locally_contracting_action,
    is_topologically_free,
    orbit_partition,
    standard_action,
    trivial_fixed_points,
    validate_action,
)
from .criteria import (
    Analysis,
    CriterionResult,
    PropertyPair,
    PropertyReport,
    analyze,
    easier_loc_contr_criterion,
    hausdorff_criterion,
    locally_contracting_criterion,
    minimal_criterion,
    top_free_criterion,
    verify_instance,
    weakly_fixed,
)
from .dsl import SemigroupSpec, build_semigroup, format_spec, parse_spec
from .fixtures import (
    brandt_semigroup,
    build_fixture,
    corpus,
    cyclic_group_with_zero,
    diamond_semilattice,
    group_with_zero,
    meet_semilattice_of_subsets,
    random_instance,
    symmetric_inverse_monoid,
)
from .germs import GermGroupoid, build_germ_groupoid
from .report import build_document, emit_dot, emit_report
from .semigroup import (
    Ideal,
    InverseSemigroup,
    from_partial_maps,
    from_table,
)
from .spectrum import (
    Character,
    Filter,
    TightSpectrum,
    all_filters,
    basic_open,
    char_of,
    filter_from_min,
    filter_of,
    is_tight_filter,
    is_ultrafilter,
    tight_spectrum,
    tightness_obstruction,
    ultrafilters,
)

__version__ = "0.1.0"
