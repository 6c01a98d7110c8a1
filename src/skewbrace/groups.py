"""Finite groups as Cayley tables on the carrier {0, ..., n-1}.

Conventions used throughout the package:

* the identity element is always 0 (tables with a different identity are
  rejected, never relabeled);
* a table is a tuple of n rows, each a tuple of n ints, with
  ``table[a][b] = a * b``;
* every ``GroupTable`` is fully validated on construction and immutable
  afterwards, so instances may be shared freely across threads/processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Sequence


class GroupTableError(ValueError):
    """A table failed validation against the group axioms."""


class OutOfRangeError(GroupTableError):
    """An entry (or a requested element) lies outside 0..n-1."""

    def __init__(self, value: int, n: int, cell: tuple[int, int] | None = None):
        where = f" at cell {cell}" if cell is not None else ""
        super().__init__(f"value {value!r}{where} is outside 0..{n - 1}")
        self.value = value
        self.cell = cell


class IdentityViolationError(GroupTableError):
    """Row 0 or column 0 is not the identity row/column."""

    def __init__(self, cell: tuple[int, int], value: int):
        super().__init__(
            f"element 0 is not the identity: cell {cell} holds {value}"
        )
        self.cell = cell
        self.value = value


class NotLatinError(GroupTableError):
    """A row or column repeats an element."""

    def __init__(self, axis: str, index: int):
        super().__init__(f"{axis} {index} is not a permutation of the carrier")
        self.axis = axis
        self.index = index


class NotAssociativeError(GroupTableError):
    """Associativity fails; carries the first witness triple."""

    def __init__(self, triple: tuple[int, int, int]):
        a, b, c = triple
        super().__init__(f"associativity fails at ({a}, {b}, {c})")
        self.triple = triple


def _compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The tuple p∘q, i.e. (p[q[0]], ..., p[q[n-1]]), built in C."""
    if len(q) == 1:
        # itemgetter with a single index returns the item, not a 1-tuple.
        return (p[q[0]],)
    return itemgetter(*q)(p)


@dataclass(frozen=True)
class PermMap:
    """A bijection on 0..n-1, stored as its image array."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        if len(image) != self.n or sorted(image) != list(range(self.n)):
            raise ValueError(f"not a bijection on 0..{self.n - 1}: {image!r}")

    @classmethod
    def identity(cls, n: int) -> "PermMap":
        return cls(n, tuple(range(n)))

    def __call__(self, i: int) -> int:
        return self.image[i]

    def compose(self, other: "PermMap") -> "PermMap":
        """Return self after other: (self.compose(other))(i) = self(other(i))."""
        return PermMap(self.n, _compose(self.image, other.image))

    def inverse(self) -> "PermMap":
        inv = [0] * self.n
        for i, v in enumerate(self.image):
            inv[v] = i
        return PermMap(self.n, tuple(inv))


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its full multiplication table.

    Validation order is fixed (range, identity, Latin rows, Latin columns,
    associativity) and the first violated axiom is reported with a witness,
    scanning cells and triples lexicographically.
    """

    n: int
    table: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise GroupTableError(f"carrier size must be positive, got {n}")
        rows = tuple(tuple(row) for row in self.table)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise GroupTableError(f"table must be {n}x{n}")
        object.__setattr__(self, "table", rows)
        for a in range(n):
            for b in range(n):
                v = rows[a][b]
                if not 0 <= v < n:
                    raise OutOfRangeError(v, n, cell=(a, b))
        for b in range(n):
            if rows[0][b] != b:
                raise IdentityViolationError((0, b), rows[0][b])
        for a in range(n):
            if rows[a][0] != a:
                raise IdentityViolationError((a, 0), rows[a][0])
        carrier = set(range(n))
        for a in range(n):
            if set(rows[a]) != carrier:
                raise NotLatinError("row", a)
        for b in range(n):
            if {rows[a][b] for a in range(n)} != carrier:
                raise NotLatinError("column", b)
        triple = _associativity_witness(rows)
        if triple is not None:
            raise NotAssociativeError(triple)
        inverses = tuple(rows[a].index(0) for a in range(n))
        object.__setattr__(self, "inv", inverses)

    def multiply(self, a: int, b: int) -> int:
        self._check_element(a)
        self._check_element(b)
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        self._check_element(a)
        return self.inv[a]

    def _check_element(self, a: int) -> None:
        if not 0 <= a < self.n:
            raise OutOfRangeError(a, self.n)

    @property
    def is_abelian(self) -> bool:
        t = self.table
        n = self.n
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))


def _associativity_witness(rows: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """The lexicographically first (a, b, c) with (ab)c != a(bc), or None."""
    n = len(rows)
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            left = rows[ra[b]]
            rb = rows[b]
            for c in range(n):
                if left[c] != ra[rb[c]]:
                    return (a, b, c)
    return None


def validate_table(n: int, raw: Sequence[Sequence[int]]) -> GroupTable:
    """Validate an n x n array as a group table with identity 0.

    Raises the first violated axiom with a witness: OutOfRangeError,
    IdentityViolationError, NotLatinError or NotAssociativeError.
    """
    return GroupTable(n, tuple(tuple(row) for row in raw))


def cyclic_group(n: int) -> GroupTable:
    """Addition modulo n."""
    return GroupTable(n, tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def klein_four_group() -> GroupTable:
    """The Klein four-group, realized as bitwise xor on {0, 1, 2, 3}."""
    return GroupTable(4, tuple(tuple(a ^ b for b in range(4)) for a in range(4)))


#: Element numbering for S3: permutations of (0, 1, 2) in lexicographic
#: one-line order. 0 is the identity, 1/2/5 are the transpositions,
#: 3/4 are the 3-cycles.
S3_ELEMENTS = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)


def symmetric_group_s3() -> GroupTable:
    """The symmetric group on three points.

    Elements are numbered by S3_ELEMENTS and the product a*b is the
    composition "apply b first, then a".
    """
    index = {p: i for i, p in enumerate(S3_ELEMENTS)}
    rows = []
    for pa in S3_ELEMENTS:
        rows.append(tuple(index[tuple(pa[x] for x in pb)] for pb in S3_ELEMENTS))
    return GroupTable(6, tuple(rows))


def _element_orders(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    n = len(rows)
    orders = []
    for a in range(n):
        k, x = 1, a
        while x != 0:
            x = rows[x][a]
            k += 1
        orders.append(k)
    return tuple(orders)


def _table_isomorphisms(
    t1: Sequence[Sequence[int]],
    t2: Sequence[Sequence[int]],
    extra1: Sequence[Sequence[int]] | None = None,
    extra2: Sequence[Sequence[int]] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every bijection p with p(0)=0 and p(t1[a][b]) = t2[p(a)][p(b)].

    When an extra table pair is given, p must transport it as well (used for
    brace isomorphism, where dot and circ must be preserved simultaneously).
    Assignments are propagated through products, so only generator images are
    branched on; yielded in DFS order, not sorted.
    """
    n = len(t1)
    if len(t2) != n:
        return
    pairs = [(t1, t2)]
    sig1 = [(o,) for o in _element_orders(t1)]
    sig2 = [(o,) for o in _element_orders(t2)]
    if extra1 is not None:
        assert extra2 is not None
        pairs.append((extra1, extra2))
        for x, o in enumerate(_element_orders(extra1)):
            sig1[x] = sig1[x] + (o,)
        for x, o in enumerate(_element_orders(extra2)):
            sig2[x] = sig2[x] + (o,)
    if sorted(sig1) != sorted(sig2):
        return

    p: list[int | None] = [None] * n
    used = [False] * n
    p[0] = 0
    used[0] = True

    def propagate(start: int, trail: list[int]) -> bool:
        queue = [start]
        while queue:
            u = queue.pop()
            for v in range(n):
                if p[v] is None:
                    continue
                for a, b in ((u, v), (v, u)):
                    pa, pb = p[a], p[b]
                    for src, dst in pairs:
                        c = src[a][b]
                        img = dst[pa][pb]
                        if p[c] is None:
                            if used[img] or sig1[c] != sig2[img]:
                                return False
                            p[c] = img
                            used[img] = True
                            trail.append(c)
                            queue.append(c)
                        elif p[c] != img:
                            return False
        return True

    def dfs() -> Iterator[tuple[int, ...]]:
        x = next((i for i in range(n) if p[i] is None), None)
        if x is None:
            yield tuple(p)  # type: ignore[arg-type]
            return
        for v in range(n):
            if used[v] or sig2[v] != sig1[x]:
                continue
            trail = [x]
            p[x] = v
            used[v] = True
            if propagate(x, trail):
                yield from dfs()
            for c in trail:
                used[p[c]] = False  # type: ignore[index]
                p[c] = None

    yield from dfs()


def automorphisms(group: GroupTable) -> list[PermMap]:
    """All automorphisms of the group (bijections fixing 0 that preserve the
    table), in lexicographic order of image arrays."""
    images = sorted(_table_isomorphisms(group.table, group.table))
    return [PermMap(group.n, image) for image in images]


# --- text and JSON table formats ------------------------------------------
#
# Text format: first line n, then n lines of n space-separated integers.
# JSON format: {"n": <int>, "table": <n x n array>}.


def _is_decimal(token: str) -> bool:
    """True iff the token is ASCII digits only: no sign, "_" or other script."""
    return token.isascii() and token.isdigit()


def _quote(text: str) -> str:
    """repr(text) for an error message, cut to a short prefix and the length
    when the text is long, so that the message stays one short line."""
    quoted = repr(text)
    if len(quoted) <= 60:
        return quoted
    return f"{quoted[:40]}... ({len(text)} characters)"


def parse_group_text(text: str) -> GroupTable:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise GroupTableError("empty table text")
    if not _is_decimal(lines[0].strip()):
        raise GroupTableError(f"first line must be the carrier size, got {_quote(lines[0])}")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise GroupTableError(f"expected {n} table rows, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if not all(_is_decimal(tok) for tok in tokens):
            raise GroupTableError(
                f"entries must be non-negative decimal integers, got row {_quote(line)}"
            )
        rows.append([int(tok) for tok in tokens])
    return validate_table(n, rows)


def group_to_text(group: GroupTable) -> str:
    lines = [str(group.n)]
    lines.extend(" ".join(str(v) for v in row) for row in group.table)
    return "\n".join(lines) + "\n"


def _decode_json(text: str, error: type[ValueError]) -> object:
    """Decode JSON text; raise `error` if it is not JSON or nests too deeply
    for the decoder (which raises RecursionError, not a parse error)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise error("invalid JSON: nested too deeply") from None


def _describe(value: object) -> str:
    """A JSON value for an error message: scalars by repr (strings cut by
    _quote), arrays and objects by type alone, since they may nest hundreds
    of levels deep."""
    if isinstance(value, list):
        return "an array"
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, str):
        return _quote(value)
    return repr(value)


def _load_table_fields(
    source: str | dict, fields: tuple[str, ...], error: type[ValueError], pairs: bool = False
) -> dict:
    """Parse a JSON object with an integer "n" and the named table fields,
    each an array of arrays of integers (of [first, second] integer pairs,
    with pairs set); raise `error` on anything else.

    `source` is the JSON text or the object already decoded from it. Only
    JSON integers count: no floats, and no booleans, although Python's bool
    is an int.
    """
    obj = _decode_json(source, error) if isinstance(source, str) else source
    names = [f'"{name}"' for name in ("n", *fields)]
    if not isinstance(obj, dict) or not {"n", *fields} <= set(obj):
        raise error(
            f"expected an object with fields {', '.join(names[:-1])} and {names[-1]}"
        )
    n = obj["n"]
    if type(n) is not int:
        raise error(f'"n" must be an integer, got {_describe(n)}')
    for name in fields:
        rows = obj[name]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise error(f'"{name}" must be an array of arrays')
        cells = [v for row in rows for v in row]
        if pairs:
            if not set(map(type, cells)) <= {list} or not set(map(len, cells)) <= {2}:
                raise error(f'"{name}" entries must be [first, second] pairs')
            cells = [v for p in cells for v in p]
        if not set(map(type, cells)) <= {int}:
            bad = next(v for v in cells if type(v) is not int)
            raise error(f'"{name}" entries must be integers, got {_describe(bad)}')
    return obj


def parse_group_json(text: str) -> GroupTable:
    obj = _load_table_fields(text, ("table",), GroupTableError)
    return validate_table(obj["n"], obj["table"])


def group_to_json(group: GroupTable) -> str:
    return json.dumps({"n": group.n, "table": [list(row) for row in group.table]})
