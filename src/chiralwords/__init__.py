"""Word maps on finite groups: images, fibers, and chirality."""

from .engine import (
    BudgetExceededError,
    ChiralityReport,
    FiberDistribution,
    WordImage,
    evaluate,
    image,
    invert_set,
    is_chiral_pair,
    is_gamma_chiral_pair,
    is_weakly_chiral_pair,
    map_set,
    naive_image,
)
from .groups import (
    FiniteGroup,
    GroupError,
    GroupMap,
    anti_from_auto,
    build_family,
    direct_product,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    from_cayley_document,
    from_permutation_generators,
    is_isomorphic,
    parse_group_spec,
    validate_group,
)
from .words import (
    FreeAntiAuto,
    FreeGroupEndo,
    Word,
    WordSyntaxError,
    apply_anti,
    canonical_form,
    identity_endo,
    identity_word,
    invert,
    parse_word,
    random_automorphism,
    reduce_syllables,
    render_word,
    substitute,
)

__version__ = "0.1.0"
