"""Finite groups as Cayley tables, plus automorphism machinery.

Elements are integers 0..n-1 with the identity always at index 0. Group
families, file loading, permutation closure, full validation, automorphism
enumeration, and the bijection between automorphisms and anti-automorphisms
all live here.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import re
import stat
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

DEFAULT_ORDER_CAP = 512
DEFAULT_AUTO_CAP = 64
# The most automorphisms a group may have to be enumerated: above the
# catalog's 192 and |Aut(C2^4)| = 20,160, far below |Aut(C2^5)| ~ 10^7.
# It is checked against the stabiliser chain's product of orbit lengths, a
# lower bound on |Aut(G)| while levels remain, so a group above it raises
# CapExceededError before any automorphism is built.
MAX_AUTOMORPHISMS = 2 ** 15
# A group file may hold 16 bytes per entry of a table at the order cap
# (4 MiB); larger files are refused before they are read.
MAX_GROUP_FILE_BYTES = 16 * DEFAULT_ORDER_CAP ** 2
# Distinct group-file contents kept parsed and validated per process.
FILE_CACHE_SIZE = 16
# Entries per LRU: built-in groups by spec, and Aut(G) and AA(G) by group.
# The catalog at order <= 32 has 55 groups, so none evicts.
GROUP_CACHE_SIZE = 64
_BY_GROUP: List[Any] = []  # the LRUs made by _cached_by_group

AUTOMORPHISM = "automorphism"
ANTI_AUTOMORPHISM = "anti-automorphism"


class GroupError(ValueError):
    """Invalid group data or unsupported construction."""


class GroupSpecError(GroupError):
    """Unparseable or out-of-range group spec string."""


class CapExceededError(GroupError):
    """A configured order/automorphism cap was exceeded."""


class _fact(functools.cached_property):
    """A cached_property that keeps CPython 3.11's fast attribute layout:
    instances share one table of attribute names, which stops growing once
    a few dozen exist, and a value written through __dict__ or under a name
    not in it moves the instance's attributes to a dict about 2x slower to
    read. So the name enters the table with the class."""

    def __set_name__(self, owner, name):
        functools.cached_property.__set_name__(self, owner, name)
        setattr(object.__new__(owner), name, None)

    def __get__(self, instance, owner=None):
        if instance is None:
            return super().__get__(instance, owner)
        value = self.func(instance)
        setattr(instance, self.attrname, value)
        return value


class FiniteGroup:
    """Group given by its full multiplication table; identity is index 0.
    Facts every check reads are computed on first use and kept on it.

    `factors` holds the two factors of a group built by `direct_product`,
    whose element i*|B| + j is the pair (i, j); None for every other group.
    Equality and hashing read the name, order, table, inverses and labels,
    so equal tables compare equal whatever their factors.
    """

    def __init__(self, name: str, order: int,
                 table: Tuple[Tuple[int, ...], ...], inverses: Tuple[int, ...],
                 labels: Tuple[str, ...],
                 factors: Optional[Tuple["FiniteGroup", "FiniteGroup"]] = None):
        self.name = name
        self.order = order
        self.table = table
        self.inverses = inverses
        self.labels = labels
        self.factors = factors
        # Hashing the table costs O(|G|^2), and every group-keyed LRU
        # lookup hashes the group, so the hash is computed on the first
        # lookup and kept.
        self._hash: Optional[int] = None
        self._powers: Dict[int, Tuple[int, ...]] = {}
        self._roots: Dict[int, Tuple[int, ...]] = {}

    def _key(self) -> tuple:
        return self.name, self.order, self.table, self.inverses, self.labels

    def __eq__(self, other):
        if other.__class__ is not FiniteGroup:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inverses[a], -k
        result, base = 0, a
        while k:
            if k & 1:
                result = self.table[result][base]
            base = self.table[base][base]
            k >>= 1
        return result

    def elements(self) -> range:
        return range(self.order)

    @_fact
    def element_orders(self) -> Tuple[int, ...]:
        orders = []
        for a in self.elements():
            x, k = a, 1
            while x != 0:
                x = self.table[x][a]
                k += 1
            orders.append(k)
        return tuple(orders)

    @_fact
    def conjugacy_classes(self) -> Tuple[Tuple[int, ...], ...]:
        """The conjugacy classes, each sorted, ordered by least element; so
        each class's first element is its representative. O(|G|^2)."""
        table, inverses = self.table, self.inverses
        seen = [False] * self.order
        classes = []
        for x in self.elements():
            if seen[x]:
                continue
            cls = sorted({table[table[a][x]][inverses[a]]
                          for a in self.elements()})
            for y in cls:
                seen[y] = True
            classes.append(tuple(cls))
        return tuple(classes)

    @_fact
    def class_size(self) -> Dict[int, int]:
        """Each class representative -> the size of its class."""
        return {cls[0]: len(cls) for cls in self.conjugacy_classes}

    @_fact
    def is_abelian(self) -> bool:
        """Whether every conjugacy class is a singleton."""
        return len(self.conjugacy_classes) == self.order

    @_fact
    def exponent(self) -> int:
        """exp(G), the lcm of the element orders: a^exp(G) = e for all a."""
        return math.lcm(*self.element_orders)

    @_fact
    def columns(self) -> Tuple[Tuple[int, ...], ...]:
        """`columns[c][v]` is v * c."""
        return tuple(zip(*self.table))

    def power_table(self, k: int) -> Tuple[int, ...]:
        """a^k for every element a, memoized by k reduced mod exp(G); so at
        most exp(G) <= |G| tables are ever held."""
        k %= self.exponent
        if k not in self._powers:
            self._powers[k] = tuple(self.power(a, k) for a in self.elements())
        return self._powers[k]

    def root_counts(self, k: int) -> Tuple[int, ...]:
        """R_k(x) = #{y : y^k = x} for every x, memoized beside
        `power_table` by k reduced mod exp(G)."""
        k %= self.exponent
        roots = self._roots.get(k)
        if roots is None:
            counts = [0] * self.order
            for y in self.power_table(k):
                counts[y] += 1
            roots = self._roots[k] = tuple(counts)
        return roots

    @_fact
    def profiles(self) -> Tuple[Tuple[int, int], ...]:
        """Each element's (order, class size); isomorphisms keep both."""
        size = {x: len(cls) for cls in self.conjugacy_classes for x in cls}
        return tuple((k, size[x]) for x, k in enumerate(self.element_orders))

    @_fact
    def search_generators(self) -> Tuple[int, ...]:
        """Generators for the image search and the law check: each is the
        element growing <gens> most, ties going to the fewest elements of
        its profile, then to the lowest index. An element of <gens, b>, for
        a b ranked before it, grows <gens> no more than b and loses the
        tie, so it is skipped."""
        profiles = self.profiles
        counts = collections.Counter(profiles)
        ranked = sorted(self.elements(), key=lambda a: (counts[profiles[a]], a))
        gens: List[int] = []
        generated = {0}
        while len(generated) < self.order:
            best, covered = generated, set(generated)
            for a in ranked:
                if a not in covered:
                    grown = _closure(self.table, gens + [a], 0)
                    covered |= grown
                    if len(grown) > len(best):
                        best, pick = grown, a
            gens.append(pick)
            generated = best
        return tuple(gens)

    @_fact
    def abelian_normal(self) -> "AbelianNormal":
        """An abelian normal subgroup grown greedily from the conjugacy
        classes, smallest first (so it holds the centre): a subgroup made
        of whole classes is normal, so a class joins when it commutes with
        A and with itself."""
        table = self.table
        members, grown = {0}, []
        for cls in sorted(self.conjugacy_classes, key=len):
            if cls[0] not in members and all(
                    table[x][y] == table[y][x]
                    for x in cls for y in grown + list(cls)):
                grown += cls
                members = _closure(table, grown, 0)
        orders = self.element_orders
        gens = _greedy_generators(
            table, sorted(members, key=lambda x: (-orders[x], x)), 0)
        return AbelianNormal(  # T: the least element of each coset A x
            tuple(sorted(members)), tuple(gens),
            tuple(x in members for x in self.elements()),
            tuple(x for x in self.elements()
                  if min(table[a][x] for a in members) == x))


class AbelianNormal:
    """An abelian normal subgroup A with generators `gens`, membership mask
    `in_a`, a transversal (one element per coset A t), and `_normal_scan`'s
    tuple blocks by coordinate count and closures by generator set."""

    def __init__(self, members: Tuple[int, ...], gens: Tuple[int, ...],
                 in_a: Tuple[bool, ...], transversal: Tuple[int, ...]):
        self.members = members
        self.gens = gens
        self.in_a = in_a
        self.transversal = transversal
        self.blocks: Dict[int, List[Tuple[int, ...]]] = {}
        self.subgroups: Dict[frozenset, Tuple[int, ...]] = {}


def _build_group(name: str, table: Sequence[Sequence[int]],
                 labels: Sequence[str],
                 factors: Optional[Tuple[FiniteGroup, FiniteGroup]] = None
                 ) -> FiniteGroup:
    """Wrap a trusted table (identity at 0) after computing inverses."""
    n = len(table)
    if len(set(labels)) != n:
        raise GroupError("labels are not unique")
    return FiniteGroup(name, n, tuple(tuple(row) for row in table),
                       tuple(row.index(0) for row in table), tuple(labels),
                       factors)


def validate_group(table: Sequence[Sequence[int]]) -> List[str]:
    """Check that a square table over 0..n-1 is a group; return the
    violations found, an empty list for a group.

    Verifies squareness, entry range, row/column bijectivity, the existence
    of a two-sided identity and inverses, and associativity by Light's
    test: (ab)c = a(bc) for all a, b and every c in a set that reaches
    every element from the identity by right multiplication, O(n^2 |gens|).
    The c passing for all a, b are closed under products, so that suffices.
    At most 10 violations are listed; each names the offending entries.
    """
    violations: List[str] = []

    def add(msg: str) -> bool:
        violations.append(msg)
        return len(violations) >= 10

    n = len(table)
    if n == 0:
        add("empty table")
        return violations
    for a, row in enumerate(table):
        if len(row) != n:
            add(f"row {a} has length {len(row)}, expected {n}")
            return violations
        # A row of plain ints in range passes in C; any other walks the
        # loop, which names the first bad entry.
        if set(map(type, row)) <= {int} and 0 <= min(row) and max(row) < n:
            continue
        for b, v in enumerate(row):
            if not _is_int(v):
                add(f"entry table[{a}][{b}] = {v!r} is not an integer")
                return violations
            if not 0 <= v < n:
                add(f"entry table[{a}][{b}] = {v!r} out of range 0..{n - 1}")
                return violations
    for a, (row, col) in enumerate(zip(table, zip(*table))):
        if len(set(row)) != n and add(f"row {a} is not a permutation"):
            return violations
        if len(set(col)) != n and add(f"column {a} is not a permutation"):
            return violations
    identity = find_identity(table)
    if identity is None:
        add("no two-sided identity element")
        return violations
    for a in range(n):
        if not any(table[a][b] == identity and table[b][a] == identity
                   for b in range(n)):
            if add(f"element {a} has no two-sided inverse"):
                return violations
    gens = _greedy_generators(table, range(n), identity)
    # Over all b at once: (ab)c = col_c[row_a[b]] and a(bc) = row_a[col_c[b]],
    # each gathered in C. Only a failing table pays for the loop below,
    # which names each violation.
    cols = [tuple(row[c] for row in table) for c in gens]
    at_cols = [(col, operator.itemgetter(*col)) for col in cols]
    for row_a in table:
        at_row = operator.itemgetter(*row_a)
        if any(at_row(col) != at_col(row_a) for col, at_col in at_cols):
            break
    else:
        return violations
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            row_ab, row_b = table[row_a[b]], table[b]
            for c in gens:
                if row_ab[c] != row_a[row_b[c]]:
                    if add(f"associativity fails at ({a},{b},{c})"):
                        return violations
    return violations


def _is_int(v: Any) -> bool:
    """An int that is not a bool (JSON `true` parses to one)."""
    return isinstance(v, int) and not isinstance(v, bool)


def find_identity(table: Sequence[Sequence[int]]) -> Optional[int]:
    n = len(table)
    for e in range(n):
        if all(table[e][b] == b and table[b][e] == b for b in range(n)):
            return e
    return None


# --- group families ------------------------------------------------------

def _check_order_cap(what: str, n: int) -> None:
    if n > DEFAULT_ORDER_CAP:
        raise CapExceededError(
            f"{what}: order {n} exceeds cap {DEFAULT_ORDER_CAP}")


def _holder_table(m: int, n: int, r: int, s: int) -> List[List[int]]:
    """The table of Hölder's <a, b | a^m, b^n = a^s, b a b^-1 = a^r>, with
    b^j a^i at index j*m + i: (b^j a^i)(b^l a^k) = b^(j+l) a^(i r^-l + k),
    and b^(j+l) = b^(j+l-n) a^s when j + l >= n. The caller passes
    admissible parameters: gcd(r, m) = 1, r^n = 1 and s(r - 1) = 0 mod m."""
    unturn = [pow(r, -l, m) for l in range(n)]
    table = []
    for j in range(n):
        for i in range(m):
            row: List[int] = []
            for l in range(n):  # the block b^(j+l) a^(c + k), k = 0..m-1
                c = (i * unturn[l] + (s if j + l >= n else 0)) % m
                base = (j + l) % n * m
                row += range(base + c, base + m)
                row += range(base, base + c)
            table.append(row)
    return table


def _relabel(table: Sequence[Sequence[int]],
             old: Sequence[int]) -> List[List[int]]:
    """The table with element old[k] renamed k."""
    new = {x: k for k, x in enumerate(old)}
    return [[new[table[a][b]] for b in old] for a in old]


def _cycles(p: Tuple[int, ...]) -> List[List[int]]:
    """The cycles of p, fixed points included, each from its least point."""
    seen, cycles = [False] * len(p), []
    for i in range(len(p)):
        cycle, j = [], i
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = p[j]
        if cycle:
            cycles.append(cycle)
    return cycles


def _cycle_label(p: Tuple[int, ...]) -> str:
    return "".join("(" + " ".join(str(j + 1) for j in cycle) + ")"
                   for cycle in _cycles(p) if len(cycle) > 1) or "e"


def _group_from_perms(name: str, perms: List[Tuple[int, ...]]) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}  # (p . q)(x) = p[q[x]]
    table = [[index[tuple(map(p.__getitem__, q))] for q in perms]
             for p in perms]
    return _build_group(name, table, [_cycle_label(p) for p in perms])


def symmetric_group(n: int) -> FiniteGroup:
    if not 2 <= n <= 5:
        raise GroupSpecError(f"S{n}: degree must be in 2..5")
    perms = list(itertools.permutations(range(n)))  # lex order, identity first
    return _group_from_perms(f"S{n}", perms)


def alternating_group(n: int) -> FiniteGroup:
    if not 3 <= n <= 5:
        raise GroupSpecError(f"A{n}: degree must be in 3..5")
    # A permutation of n points in c cycles is n - c transpositions.
    perms = [p for p in itertools.permutations(range(n))
             if (n - len(_cycles(p))) % 2 == 0]
    return _group_from_perms(f"A{n}", perms)


_FAMILY_RE = re.compile(r"^([CDSA])([0-9]+)$")
# Longer numbers exceed every order cap and degree bound; int() of 4,300 or
# more digits would raise a plain ValueError, so they are refused unread.
MAX_SPEC_DIGITS = 9
# The most factors in a product spec: 10 factors of order 2 or more pass
# DEFAULT_ORDER_CAP, so only C1 padding makes a longer product, and
# `_built_in_group` recurses once per factor.
MAX_FACTORS = 9


def build_family(spec: str) -> FiniteGroup:
    """Build a named family group: C<n>, D<n> (n = order), Q8, S<n>, A<n>.

    C<n> is Hölder's (n, 1, 1, 0) and D<n> is (n/2, 2, n/2 - 1, 0), with
    rotations r<k> before reflections sr<k>. Q8 is (4, 2, 3, 2) with a = i
    and b = j, relabelled to the element order 1, -1, i, -i, j, -j, k, -k.
    """
    spec = spec.strip()
    if spec == "Q8":
        return _build_group("Q8", _relabel(_holder_table(4, 2, 3, 2),
                                           (0, 2, 1, 3, 4, 6, 7, 5)),
                            ["1", "-1", "i", "-i", "j", "-j", "k", "-k"])
    m = _FAMILY_RE.match(spec)
    if not m:
        raise GroupSpecError(f"unknown group family spec {spec!r}")
    family, digits = m.groups()
    if len(digits) > MAX_SPEC_DIGITS:
        raise GroupSpecError(f"{family}<n>: n has {len(digits)} digits, "
                             f"more than {MAX_SPEC_DIGITS}")
    n = int(digits)
    if family == "S":
        return symmetric_group(n)
    if family == "A":
        return alternating_group(n)
    if family == "C":
        if n < 1:
            raise GroupSpecError(f"C{n}: order must be >= 1")
        _check_order_cap(f"C{n}", n)
        return _build_group(f"C{n}", _holder_table(n, 1, 1, 0),
                            [str(i) for i in range(n)])
    if n < 4 or n % 2:
        raise GroupSpecError(f"D{n}: order must be even and >= 4")
    _check_order_cap(f"D{n}", n)
    half = n // 2
    return _build_group(f"D{n}", _holder_table(half, 2, half - 1, 0),
                        [f"r{k}" for k in range(half)]
                        + [f"sr{k}" for k in range(half)])


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; pair (i, j) gets index i*|h| + j. The result
    keeps (g, h) as its `factors`."""
    n = g.order * h.order
    if n > DEFAULT_ORDER_CAP:
        raise CapExceededError(
            f"product order {n} exceeds cap {DEFAULT_ORDER_CAP}")
    nh = h.order
    table = [[g.table[i1][i2] * nh + h.table[j1][j2]
              for i2 in range(g.order) for j2 in range(nh)]
             for i1 in range(g.order) for j1 in range(nh)]
    labels = [f"({g.labels[i]},{h.labels[j]})"
              for i in range(g.order) for j in range(nh)]
    return _build_group(f"{g.name}x{h.name}", table, labels, (g, h))


def from_cayley_document(doc: dict) -> FiniteGroup:
    """Build a fully validated group from a parsed Cayley document.

    The document holds `order`, `table`, and optionally `name` and `labels`.
    If the table's identity is not at index 0, elements are relabeled so
    that it is. The order is checked against the cap before the table is.
    """
    try:
        order = doc["order"]
        table = doc["table"]
    except (KeyError, TypeError) as exc:
        raise GroupError(f"malformed Cayley document: {exc}") from None
    if not _is_int(order):
        raise GroupError("malformed Cayley document: order is not an "
                         "integer")
    _check_order_cap("Cayley document", order)
    if not (isinstance(table, list)
            and all(isinstance(row, list) for row in table)):
        raise GroupError("malformed Cayley document: table is not a list "
                         "of rows")
    if len(table) != order:
        raise GroupError(f"table has {len(table)} rows, order says {order}")
    violations = validate_group(table)
    if violations:
        raise GroupError("invalid group table: " + "; ".join(violations))
    name = str(doc.get("name", "file-group"))
    labels = doc.get("labels")
    if labels is None:
        labels = [f"g{i}" for i in range(order)]
    if not (isinstance(labels, list)
            and all(isinstance(label, str) for label in labels)):
        raise GroupError("malformed Cayley document: labels is not a list "
                         "of strings")
    if len(labels) != order:
        raise GroupError("labels length does not match order")
    identity = find_identity(table)
    assert identity is not None
    if identity != 0:
        old = [identity] + [a for a in range(order) if a != identity]
        table = _relabel(table, old)
        labels = [labels[a] for a in old]
    return _build_group(name, table, labels)


def from_permutation_generators(perms: Sequence[Sequence[int]],
                                name: str = "perm-group") -> FiniteGroup:
    """Close a set of permutations of 0..m-1 under composition.

    Elements are ordered by breadth-first discovery from the identity. A
    generator on more than DEFAULT_ORDER_CAP points is refused before the
    closure starts: the table costs |G|^2 m, and every group within the
    order cap acts faithfully on that many points (its regular action).
    """
    gens = []
    for p in perms:
        t = tuple(p)
        if len(t) > DEFAULT_ORDER_CAP:
            raise CapExceededError(
                f"permutation degree {len(t)} exceeds cap {DEFAULT_ORDER_CAP}")
        if sorted(t) != list(range(len(t))):
            raise GroupError(f"not a permutation: {p}")
        gens.append(t)
    m = len(gens[0]) if gens else 1
    if any(len(p) != m for p in gens):
        raise GroupError("generators act on different sets")
    elements = [tuple(range(m))]
    seen = set(elements)
    for x in elements:  # grows as it is read: a breadth-first walk
        for gen in gens:
            y = tuple(map(x.__getitem__, gen))  # x . gen
            if y not in seen:
                if len(elements) >= DEFAULT_ORDER_CAP:
                    raise CapExceededError(
                        f"closure exceeds order cap {DEFAULT_ORDER_CAP}")
                seen.add(y)
                elements.append(y)
    return _group_from_perms(name, elements)


# (sha256 of the file's bytes, path stem) -> group, least recently used
# first. The stem is part of the key because it names `perm-gens` groups.
_file_groups: Dict[Tuple[bytes, str], FiniteGroup] = {}


def load_group_file(path: str | os.PathLike) -> FiniteGroup:
    """Load a group from a JSON document: Cayley table or `perm-gens`.

    The file is read on every call, so edits are seen, but each distinct
    content is parsed and validated once per process: the last
    FILE_CACHE_SIZE groups are kept by the sha256 of the file's bytes.
    The path is shown, and its stem taken, as `pathlib.PurePosixPath` does.
    """
    path = os.fspath(path)
    lead = len(path) - len(path.lstrip("/"))
    path = "/" * (2 if lead == 2 else min(lead, 1)) + "/".join(
        p for p in path.split("/") if p not in ("", ".")) or "."
    data = _read_group_file(path)
    name = os.path.basename(path)
    dot = name.rfind(".")
    stem = name[:dot] if 0 < dot < len(name) - 1 else name
    key = (hashlib.sha256(data).digest(), stem)
    group = _file_groups.pop(key, None)
    if group is None:
        group = _group_from_file_bytes(data, path, stem)
        if len(_file_groups) >= FILE_CACHE_SIZE:
            del _file_groups[next(iter(_file_groups))]
    _file_groups[key] = group
    return group


def _read_group_file(path: str) -> bytes:
    """The file's bytes. Anything but a regular file, and a file larger
    than MAX_GROUP_FILE_BYTES, is refused before it is read."""
    try:
        # Non-blocking, so that opening a FIFO with no writer returns.
        with open(path, "rb", opener=lambda p, flags: os.open(
                p, flags | getattr(os, "O_NONBLOCK", 0))) as fh:
            st = os.fstat(fh.fileno())
            if not stat.S_ISREG(st.st_mode):
                raise GroupError(f"group file {path} is not a regular file")
            if st.st_size <= MAX_GROUP_FILE_BYTES:
                data = fh.read(MAX_GROUP_FILE_BYTES + 1)
                if len(data) <= MAX_GROUP_FILE_BYTES:
                    return data
    except OSError as exc:
        raise GroupError(f"cannot read group file {path}: {exc}") from None
    raise CapExceededError(
        f"group file {path} is larger than {MAX_GROUP_FILE_BYTES} bytes "
        f"(16 bytes per table entry at order cap {DEFAULT_ORDER_CAP})")


def _group_from_file_bytes(data: bytes, path: str, stem: str) -> FiniteGroup:
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise GroupError(f"cannot read group file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise GroupError(f"cannot read group file {path}: "
                         "the document is not a JSON object")
    if not isinstance(doc.get("name", ""), str):
        raise GroupError(f"malformed group file {path}: name is not a "
                         "string")
    if "perm-gens" in doc:
        gens = doc["perm-gens"]
        if not (isinstance(gens, list) and all(
                isinstance(p, list) and all(map(_is_int, p)) for p in gens)):
            raise GroupError(f"malformed group file {path}: perm-gens is "
                             "not a list of integer lists")
        return from_permutation_generators(
            gens, name=str(doc.get("name", stem)))
    return from_cayley_document(doc)


def parse_group_spec(spec: str) -> FiniteGroup:
    """CLI group spec: family token, `x`-separated product, or @<path>.

    Built-in specs are memoized. A file is re-read on every call, and each
    distinct content is validated once per process (`load_group_file`).
    Orders above DEFAULT_ORDER_CAP are refused before a table is built.
    """
    spec = spec.strip()
    if spec.startswith("@"):
        return load_group_file(spec[1:])
    return _built_in_group(spec)


@functools.lru_cache(maxsize=GROUP_CACHE_SIZE)
def _built_in_group(spec: str) -> FiniteGroup:
    """A family group, or a product of factors built through this cache."""
    factors = spec.count("x") + 1
    if factors > MAX_FACTORS:
        raise GroupSpecError(f"group spec has {factors} factors, more than "
                             f"{MAX_FACTORS}")
    parts = spec.split("x")
    if not all(part.strip() for part in parts):
        raise GroupSpecError(f"group spec {spec!r} has an empty factor")
    if len(parts) == 1:
        return build_family(spec)
    return direct_product(_built_in_group("x".join(parts[:-1]).strip()),
                          _built_in_group(parts[-1].strip()))


# --- automorphisms and anti-automorphisms ---------------------------------

class GroupMap:
    """Bijection of a group verified as automorphism or anti-automorphism.

    The constructor checks the map's law in O(|G|·gens) on a generating set,
    f(x·a) = f(x)·f(a) (anti: f(a)·f(x)) for all x and generators a: the y
    with f(x·y) = f(x)·f(y) for all x are closed under products. It is the
    entry point for outside data: user-given maps and enumeration results.
    Maps derived from a checked map or from the group itself (inverses, the
    A(G) <-> AA(G) correspondence, identity and inversion) obey the law by
    construction and are built by `_derived`, which skips the check. Two
    maps are equal when their group, images and kind are.
    """

    def __init__(self, group: FiniteGroup, images: Tuple[int, ...], kind: str):
        self.group = group
        self.images = images
        self.kind = kind
        self.__post_init__()

    def __post_init__(self):
        """The law check. `__init__` calls it through `self`, so a wrapper
        set on the class sees every checked construction; perfbench traces
        it under this name as `groups.map_check`."""
        g, images = self.group, self.images
        try:  # n entries that cover all n elements: a permutation
            bijective = (len(images) == g.order
                         and set(images).issuperset(g.elements()))
        except TypeError:  # an unhashable entry is no element
            bijective = False
        if not bijective:
            raise GroupError("images are not a permutation")
        if images[0] != 0:
            raise GroupError("map does not fix the identity")
        if self.kind not in (AUTOMORPHISM, ANTI_AUTOMORPHISM):
            raise GroupError(f"unknown map kind {self.kind!r}")
        table, anti = g.table, self.kind == ANTI_AUTOMORPHISM
        for a in g.search_generators:
            fa = images[a]
            if [images[row[a]] for row in table] != [
                    table[fa][fx] if anti else table[fx][fa] for fx in images]:
                raise GroupError(f"map violates the {self.kind} law")

    @classmethod
    def _derived(cls, group: FiniteGroup, images: Tuple[int, ...],
                 kind: str) -> "GroupMap":
        """A map whose law follows from a checked map or the group law."""
        m = object.__new__(cls)
        m.group = group
        m.images = images
        m.kind = kind
        return m

    def __eq__(self, other):
        if other.__class__ is not GroupMap:
            return NotImplemented
        return (self.group == other.group and self.images == other.images
                and self.kind == other.kind)

    def __hash__(self) -> int:
        return hash((self.group, self.images, self.kind))

    @_fact
    def inverse_images(self) -> Tuple[int, ...]:
        """The image array of the inverse map, built on first use and kept:
        gamma^-1(x) for every element x."""
        inv = [0] * self.group.order
        for a, fa in enumerate(self.images):
            inv[fa] = a
        return tuple(inv)

    def inverse(self) -> "GroupMap":
        return GroupMap._derived(self.group, self.inverse_images, self.kind)


def identity_map(g: FiniteGroup) -> GroupMap:
    return GroupMap._derived(g, tuple(g.elements()), AUTOMORPHISM)


def inversion_map(g: FiniteGroup) -> GroupMap:
    """The anti-automorphism x -> x^-1; it is its own inverse."""
    return GroupMap._derived(g, g.inverses, ANTI_AUTOMORPHISM)


def anti_from_auto(zeta: GroupMap) -> GroupMap:
    """The anti-automorphism x -> zeta(x^-1); inversion swaps the kinds."""
    if zeta.kind != AUTOMORPHISM:
        raise GroupError("expected an automorphism")
    images = tuple(map(zeta.images.__getitem__, zeta.group.inverses))
    return GroupMap._derived(zeta.group, images, ANTI_AUTOMORPHISM)


def _greedy_generators(table: Sequence[Sequence[int]],
                       candidates: Iterable[int], identity: int) -> List[int]:
    """The candidates, in the order given, that strictly grow the subgroup:
    the set reached from the identity by right multiplication."""
    gens: List[int] = []
    generated = {identity}
    for a in candidates:
        if a not in generated:
            gens.append(a)
            generated = _closure(table, gens, identity)
    return gens


def _closure(table: Sequence[Sequence[int]], gens: Sequence[int],
             identity: int) -> set:
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for a in gens:
                y = table[x][a]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _extend_map(g: FiniteGroup, h: FiniteGroup, gens: Sequence[int],
                images: Sequence[int]) -> Optional[dict]:
    """Grow the map <gens> -> h determined by generator images.

    Returns the (injective, product-consistent) partial map or None on the
    first conflict. When gens generate g and the map covers it, consistency
    over every (element, generator) product makes it a full homomorphism.
    """
    mapping = {0: 0}
    used = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            fx = mapping[x]
            for a, fa in zip(gens, images):
                y = g.table[x][a]
                fy = h.table[fx][fa]
                if y in mapping:
                    if mapping[y] != fy:
                        return None
                else:
                    if fy in used:
                        return None
                    mapping[y] = fy
                    used.add(fy)
                    nxt.append(y)
        frontier = nxt
    return mapping


def _image_search(g: FiniteGroup, h: FiniteGroup,
                  prefix: Sequence[int] = ()) -> Iterator[Tuple[int, ...]]:
    """Backtrack over generator images drawn from the elements of h with
    their profile; yields full bijective image arrays. The first
    len(prefix) generators have their images fixed by `prefix`."""
    gens = g.search_generators
    g_profiles, h_profiles = g.profiles, h.profiles
    candidates = [[c for c in h.elements() if h_profiles[c] == g_profiles[a]]
                  for a in gens]

    def rec(i: int, chosen: List[int]) -> Iterator[Tuple[int, ...]]:
        mapping = _extend_map(g, h, gens[:i], chosen)
        if mapping is None:
            return
        if i < len(gens):
            for c in candidates[i]:
                yield from rec(i + 1, chosen + [c])
        elif len(mapping) == g.order == h.order:
            yield tuple(mapping[x] for x in g.elements())

    return rec(len(prefix), list(prefix))


def _cached_by_group(fn):
    """An LRU of fn(g) with one entry per group, called as f(g, cap=...).
    The cap only decides whether |G| admits g, so it is checked before the
    lookup: every cap that admits g shares g's entry. The wrapper keeps the
    LRU's `cache_info`; its `cache_clear` clears every such LRU, since the
    stabiliser chain's is a step of the others'."""
    cached = functools.lru_cache(maxsize=GROUP_CACHE_SIZE)(fn)
    _BY_GROUP.append(cached)

    @functools.wraps(fn)
    def call(g: FiniteGroup, cap: int = DEFAULT_AUTO_CAP):
        if g.order > cap:
            raise CapExceededError(
                f"|G| = {g.order} exceeds automorphism cap {cap}")
        return cached(g)

    del call.__wrapped__  # whose signature lacks the cap
    call.cache_info = cached.cache_info
    call.cache_clear = lambda: [lru.cache_clear() for lru in _BY_GROUP]
    return call


@_cached_by_group
def _stabiliser_chain(g: FiniteGroup) -> tuple:
    """(the strong generators of Aut(g), law-checked, and the transversals)
    of a stabiliser chain over the base b_0..b_{k-1} = g.search_generators:
    S_i is the automorphisms fixing b_0..b_{i-1}, and S_k is trivial. From
    i = k-1 down to 0, the orbit of b_i under the generators found at
    levels >= i, which generate S_i, is grown with one transversal map per
    point. Each same-profile candidate c outside the orbit gets one search
    for a map fixing b_<i and sending b_i to c: a map found joins the
    generators and the orbit grows again; none found means c is outside the
    orbit. So |Aut(G)| is the product of the orbit lengths, checked against
    MAX_AUTOMORPHISMS before any map is checked."""
    base, profiles = g.search_generators, g.profiles
    identity = tuple(g.elements())
    strong: List[Tuple[int, ...]] = []
    transversals: List[List[Tuple[int, ...]]] = []
    size = 1

    def grow(orbit: dict) -> None:
        frontier = list(orbit)
        while frontier:
            nxt = []
            for p in frontier:
                for s in strong:
                    if s[p] not in orbit:
                        orbit[s[p]] = tuple(map(s.__getitem__, orbit[p]))
                        nxt.append(s[p])
            frontier = nxt

    for i in reversed(range(len(base))):
        b = base[i]
        orbit = {b: identity}
        grow(orbit)
        for c in g.elements():
            if profiles[c] == profiles[b] and c not in orbit:
                found = next(_image_search(g, g, base[:i] + (c,)), None)
                if found is not None:
                    strong.append(found)
                    grow(orbit)
        size *= len(orbit)
        if size > MAX_AUTOMORPHISMS:
            raise CapExceededError(f"{g.name} has more than "
                                   f"{MAX_AUTOMORPHISMS} automorphisms, "
                                   "the enumeration bound")
        transversals.append(list(orbit.values()))
    return tuple(GroupMap(g, s, AUTOMORPHISM) for s in strong), transversals


@_cached_by_group
def enumerate_automorphisms(g: FiniteGroup) -> Tuple[GroupMap, ...]:
    """All automorphisms of g, in deterministic (image-array) order; called
    as enumerate_automorphisms(g, cap), it refuses a g of order above cap.
    Each is one product u_0 u_1 ... u_{k-1} of the chain's transversal maps,
    law-checked unless it is a strong generator, checked already."""
    strong, transversals = _stabiliser_chain(g, g.order)
    checked = {s.images: s for s in strong}
    arrays = [tuple(g.elements())]
    for maps in transversals:  # S_i = u_i S_{i+1}, from S_k = 1 up to S_0
        arrays = [tuple(map(u.__getitem__, a)) for u in maps for a in arrays]
    return tuple(checked.get(arr) or GroupMap(g, arr, AUTOMORPHISM)
                 for arr in sorted(arrays))


@_cached_by_group
def automorphism_orbit_minima(g: FiniteGroup) -> Tuple[int, ...]:
    """The least element of each element's Aut(G)-orbit, closed under the
    strong generators alone; called with a cap as the enumerations are."""
    strong = [s.images for s in _stabiliser_chain(g, g.order)[0]]
    minima = list(g.elements())
    for x in g.elements():  # ascending: x is the least of a new orbit
        orbit = [x] if minima[x] == x else []
        for y in orbit:
            for s in strong:
                if minima[s[y]] > x:
                    minima[s[y]] = x
                    orbit.append(s[y])
    return tuple(minima)


class AllGammas(tuple):
    """Every anti-automorphism of a group, in enumeration order, carrying
    `orbit_minima`, the least element of each element's Aut(G)-orbit
    (`automorphism_orbit_minima`).

    Only `enumerate_anti_automorphisms` makes one: any other sequence of
    gammas, even one built from these, is a plain tuple or list."""

    orbit_minima: Tuple[int, ...]


@_cached_by_group
def enumerate_anti_automorphisms(g: FiniteGroup) -> AllGammas:
    """All anti-automorphisms, via the bijection with automorphisms."""
    autos = enumerate_automorphisms(g, g.order)  # g passed the caller's cap
    gammas = AllGammas(anti_from_auto(zeta) for zeta in autos)
    gammas.orbit_minima = automorphism_orbit_minima(g, g.order)
    return gammas


def is_isomorphic(g: FiniteGroup, h: FiniteGroup,
                  cap: int = DEFAULT_AUTO_CAP) -> bool:
    if max(g.order, h.order) > cap:
        raise CapExceededError(
            f"orders {g.order}, {h.order} exceed isomorphism cap {cap}")
    if g.order != h.order:
        return False
    if sorted(g.profiles) != sorted(h.profiles):
        return False
    return next(_image_search(g, h), None) is not None
