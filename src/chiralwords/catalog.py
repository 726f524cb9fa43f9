"""Small-group catalog used by the verifier suites and the search sweep."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .groups import FiniteGroup, parse_group_spec

# Non-cyclic groups carried alongside C1..Cn, each with its order, so that
# listing the catalog builds no group above the order asked for. Dihedral
# specs use group order (D6 is S3); extra abelian products cover non-cyclic
# abelian types.
_EXTRA_SPECS = [
    ("C2xC2", 4), ("C2xC4", 8), ("C2xC6", 12), ("C2xC8", 16),
    ("C2xC2xC2", 8), ("C3xC3", 9), ("C4xC4", 16),
    ("D4", 4), ("D6", 6), ("D8", 8), ("D10", 10), ("D12", 12), ("D14", 14),
    ("D16", 16), ("D18", 18), ("D20", 20), ("D22", 22), ("D24", 24),
    ("Q8", 8), ("Q8xC2", 16), ("S3", 6), ("S4", 24), ("A4", 12), ("A5", 60),
]

MAX_CYCLIC = 32


def catalog_specs(max_order: int,
                  families: Optional[Sequence[str]] = None) -> List[str]:
    """Group specs with order <= max_order, sorted by (order, spec).

    `families` filters by leading family letter(s), e.g. ["C", "D"]. An
    empty selection raises ValueError, so no run passes over no group.
    """
    specs: List[Tuple[int, str]] = []
    for n in range(1, min(max_order, MAX_CYCLIC) + 1):
        specs.append((n, f"C{n}"))
    specs += [(order, spec) for spec, order in _EXTRA_SPECS
              if order <= max_order]
    specs.sort()
    out = [s for _, s in specs]
    if families is not None:
        allowed = {f.upper() for f in families}
        out = [s for s in out if s[0].upper() in allowed]
    if not out:
        chosen = ("any family" if families is None
                  else f"families {list(families)}")
        raise ValueError(f"the catalog has no group of order <= {max_order} "
                         f"in {chosen}")
    return out


def catalog_groups(max_order: int,
                   families: Optional[Sequence[str]] = None
                   ) -> List[Tuple[str, FiniteGroup]]:
    return [(spec, parse_group_spec(spec))
            for spec in catalog_specs(max_order, families)]
