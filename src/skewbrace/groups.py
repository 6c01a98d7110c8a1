"""Finite groups as Cayley tables on the carrier {0, ..., n-1}.

Conventions used throughout the package:

* the identity element is always 0 (tables with a different identity are
  rejected, never relabeled);
* a table is a tuple of n rows, each a tuple of n ints, with
  ``table[a][b] = a * b``;
* every ``GroupTable`` is fully validated on construction and immutable
  afterwards, so instances may be shared freely across threads/processes.

Exhaustive checks run a row at a time. ``_action_rows`` sweeps the law
act[op[x][y]][z] = act[x][inner[y][z]], which is associativity when the
three tables are one, and Propositions 1 and 2 of :mod:`skewbrace.braces` on
(S, circ, S) and (U, U, circ): for each x it builds both sides over all
(y, z) as two sequences by gathers in C and compares them whole, as the
identity sweeps of braces do. ``_row_form``
picks the sequences: on a carrier of at most 256 elements every entry fits a
byte, so ``_byte_table`` encodes a table as one ``bytes`` string plus
256-byte translation rows, and ``bytes.translate`` composes a permutation
with every row of the table in one C call; above 256 elements the same
gathers build tuples. Only a row whose sides differ is turned into cells:
``_differing`` marks its failing cells, by one XOR of the two sides read as
integers when they are byte strings and by ``map`` in C when they are
tuples, and ``_witnesses`` picks them in lexicographic order.

The package's value types (``PermMap``, ``GroupTable`` here, and the
records of :mod:`skewbrace.braces`, :mod:`skewbrace.search` and
:mod:`skewbrace.ybe`) are plain immutable records built on ``_Record``:
construction by position or keyword in ``_Record.__init__`` alone, with
``__post_init__`` as the one per-class hook that validates or normalises,
equality and hashing by field values, a ``Name(field=value, ...)`` repr,
no assignment after construction, and pickling and copying through their
instance ``__dict__``. They are not dataclasses: importing ``dataclasses``
(and the ``inspect`` it imports) and generating their methods would add
about 60% to the package's import time, which every CLI process pays.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from itertools import chain, compress, product
from operator import attrgetter, itemgetter, ne
from typing import Callable, Iterable, Iterator, Sequence


class _Record:
    """Base of the package's immutable value types.

    A subclass lists its compared fields in ``_fields``, in constructor
    order, and defines no ``__init__``: the one here binds positional or
    keyword arguments to the fields, a field left out taking its class
    attribute as default (a field without one is required), sets each with
    ``object.__setattr__`` and then calls ``self.__post_init__()``. That is
    the per-class hook: it may validate, normalise a field or add a
    computed one the same way, and is looked up on the class at every
    construction. Fields left out of ``_fields`` take no part in equality,
    hashing or the repr.

    Fields are never set or read through ``self.__dict__``: touching it
    turns the instance's inline attribute values into a dict, which slows
    every later attribute read. No ``__slots__``: pickle and copy restore
    the instance ``__dict__`` without going through ``__setattr__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # The compared values of an instance, fetched in C: a tuple, or the
        # value itself when there is one field.
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call other than a full positional one."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unknown or repeated argument {key!r}")
        values.update(kwargs)
        for key in fields:
            if key not in values and not hasattr(cls, key):
                raise TypeError(f"{name}() missing argument {key!r}")
        return tuple(values[key] if key in values else getattr(cls, key) for key in fields)

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class GroupTableError(ValueError):
    """A table failed validation against the group axioms."""


class OutOfRangeError(GroupTableError):
    """An entry (or a requested element) lies outside 0..n-1."""

    def __init__(self, value: int, n: int, cell: tuple[int, int] | None = None):
        where = f" at cell {cell}" if cell is not None else ""
        super().__init__(f"value {_cut_int(value)}{where} is outside 0..{n - 1}")
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


def _gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The gather s -> (s[i] for i in indices), a tuple built in C (also for
    one index, where itemgetter would return the item, not a 1-tuple)."""
    if len(indices) == 1:
        (i,) = indices
        return lambda s: (s[i],)
    return itemgetter(*indices)


def _compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The tuple p∘q, i.e. (p[q[0]], ..., p[q[n-1]]), built in C."""
    return _gather(q)(p)


def _inverse(p: Sequence[int]) -> tuple[int, ...]:
    """The inverse of the permutation p of 0..n-1, built in C."""
    return tuple(sorted(range(len(p)), key=p.__getitem__))


class PermMap(_Record):
    """A bijection on 0..n-1, stored as its image array."""

    n: int
    image: tuple[int, ...]
    _fields = ("n", "image")

    def __post_init__(self) -> None:
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        if len(image) != self.n or sorted(image) != list(range(self.n)):
            raise ValueError(f"not a bijection on 0..{self.n - 1}: {image!r}")

    def __call__(self, i: int) -> int:
        return self.image[i]

    def compose(self, other: "PermMap") -> "PermMap":
        """Return self after other: (self.compose(other))(i) = self(other(i))."""
        return PermMap(self.n, _compose(self.image, other.image))

    def inverse(self) -> "PermMap":
        return PermMap(self.n, _inverse(self.image))


class GroupTable(_Record):
    """A finite group given by its full multiplication table.

    Validation order is fixed (range, identity, Latin rows, Latin columns,
    associativity) and the first violated axiom is reported with a witness,
    scanning cells and triples lexicographically. The range and column
    checks and the associativity row check run in C; a cell loop only runs
    to find the cell of an out-of-range entry.
    """

    n: int
    table: tuple[tuple[int, ...], ...]
    #: The inverse of each element, computed by validation; not compared.
    inv: tuple[int, ...]
    _fields = ("n", "table")

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise GroupTableError(f"carrier size must be positive, got {_cut_int(n)}")
        rows = tuple(tuple(row) for row in self.table)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise GroupTableError(f"table must be {_cut_int(n)}x{_cut_int(n)}")
        object.__setattr__(self, "table", rows)
        carrier = set(range(n))
        # The cell loop only runs to find the first entry outside 0..n-1.
        if not carrier.issuperset(chain.from_iterable(rows)):
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
        for a in range(n):
            if set(rows[a]) != carrier:
                raise NotLatinError("row", a)
        for b, column in enumerate(zip(*rows)):
            if set(column) != carrier:
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


#: Cached by value: validating a pair's two tables and then running the
#: identity suite on the pair encode dot, circ and S up to six times each.
@lru_cache(maxsize=8)
def _byte_table(
    rows: tuple[tuple[int, ...], ...],
) -> tuple[bytes, tuple[bytes, ...], tuple[bytes, ...]]:
    """The table (rows of entries in 0..255) as bytes: (flat, lines, maps).

    `flat` holds the entries row by row, `lines[a]` is row a, and `maps[a]`
    is row a padded to the 256-byte table of bytes.translate, so that
    ``s.translate(maps[a])`` replaces every entry v of s by rows[a][v].
    ``flat.translate(maps[a])`` is thus row a composed with every row of the
    table, and ``b"".join(_compose(lines, p))`` the rows in the order p, each
    in one C call.
    """
    tail = bytes(256 - len(rows[0]))
    lines = tuple(map(bytes, rows))
    return b"".join(lines), lines, tuple([line + tail for line in lines])


def _tuple_table(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """_byte_table's (flat, lines, maps) as tuples, for any carrier."""
    lines = tuple(map(tuple, rows))
    return tuple(chain.from_iterable(lines)), lines, lines


def _apply_tuple(s: Sequence[int], row: Sequence[int]) -> tuple[int, ...]:
    """bytes.translate's counterpart on tuples: every entry v of s replaced
    by row[v]."""
    return _compose(row, s)


def _join_tuples(parts: Iterable[Sequence[int]]) -> tuple[int, ...]:
    return tuple(chain.from_iterable(parts))


#: (line, table, apply, join) of a row form: `line` makes one row from its
#: entries, `table` encodes a table as (flat, lines, maps), `apply(s, m)`
#: replaces every entry v of s by row[v] where m is the row's map, and
#: `join` concatenates rows.
_BYTE_FORM = (bytes, _byte_table, bytes.translate, b"".join)
_TUPLE_FORM = (tuple, _tuple_table, _apply_tuple, _join_tuples)


def _row_form(n: int) -> tuple[Callable, Callable, Callable, Callable]:
    """The row form on a carrier of n elements: byte strings when every
    entry fits a byte (n <= 256), tuples above."""
    return _BYTE_FORM if n <= 256 else _TUPLE_FORM


class _Triples:
    """One side of a failing Yang-Baxter row: cell i is the triple
    (x[i], y[i], z[i]) of three rows of values.

    The cells are made by zip as they are read, so that a side whose parts
    are tuples, compared cell by cell by _differing with map in C, allocates
    no tuple per cell: zip reuses its tuple once the comparison has let it
    go. A side whose parts are byte strings is never read cell by cell:
    _differing masks its parts whole.
    """

    __slots__ = ("parts",)

    def __init__(self, x: Sequence[int], y: Sequence[int], z: Sequence[int]) -> None:
        self.parts = (x, y, z)

    def __len__(self) -> int:
        return len(self.parts[0])

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return zip(*self.parts)


def _differing(lhs: Sequence, rhs: Sequence) -> Iterable:
    """Per cell of a row's two sides, in order, a value that is true exactly
    where the sides differ: the mask that compress reads.

    Sides of byte strings (n <= 256) give the bytes of the XOR of the two
    sides read as integers, so byte i is nonzero exactly when cell i
    differs; a Yang-Baxter side (_Triples) ORs its three parts' XORs. A few
    C calls build the mask of the whole row. Tuple sides, on larger
    carriers, are compared cell by cell with map in C.
    """
    left, right = (lhs.parts, rhs.parts) if type(lhs) is _Triples else ((lhs,), (rhs,))
    if type(left[0]) is not bytes:
        return map(ne, lhs, rhs)
    mask = 0
    for a, b in zip(left, right):
        mask |= int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return mask.to_bytes(len(lhs), "big")


def _witnesses(
    n: int, rows: Iterable[tuple[int, Sequence[int], Sequence[int]]]
) -> Iterator[tuple[int, ...]]:
    """The witness tuples of failing rows (x, lhs, rhs), in order.

    A row's sides list its cells in lexicographic order: (y, z) row-major
    when they have n^2 entries, b when they have n (on one element, where
    the two agree, every identity holds). Each cell where _differing marks
    the sides as different gives (x, y, z) or (x, b), picked by compress in
    C.
    """
    carrier = range(n)
    return chain.from_iterable(
        compress(
            product((x,), carrier, carrier) if len(lhs) > n else product((x,), carrier),
            _differing(lhs, rhs),
        )
        for x, lhs, rhs in rows
    )


def _action_rows(
    act: tuple[tuple[int, ...], ...], op: Sequence[Sequence[int]], inner: Sequence[Sequence[int]]
) -> Iterator[tuple]:
    """Yield every row (x, lhs, rhs) where act[op[x][y]][z] != act[x][inner[y][z]]
    for some (y, z): x -> act[x] carries one product to another, as
    associativity (T, T, T), Proposition 1 (S, circ, S) and Proposition 2
    (U, U, circ) say. Row y of the sides is row op[x][y] of act, and row x
    of act after row y of inner."""
    line, table, apply, join = _row_form(len(act))
    _, lines, maps = table(act)
    flat = join(map(line, inner))
    for x, row in enumerate(op):
        lhs = join(_compose(lines, row))
        rhs = apply(flat, maps[x])
        if lhs != rhs:
            yield x, lhs, rhs


def _associativity_witness(rows: tuple[tuple[int, ...], ...]) -> tuple[int, int, int] | None:
    """The lexicographically first (a, b, c) with (ab)c != a(bc), or None."""
    return next(_witnesses(len(rows), _action_rows(rows, rows, rows)), None)


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
    if extra1 is not None:
        assert extra2 is not None
        pairs.append((extra1, extra2))
    # Per element, its order in each table, which every isomorphism keeps.
    orders1 = list(zip(*[_element_orders(src) for src, _ in pairs]))
    orders2 = list(zip(*[_element_orders(dst) for _, dst in pairs]))
    if sorted(orders1) != sorted(orders2):
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
                            if used[img] or orders1[c] != orders2[img]:
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
            if used[v] or orders2[v] != orders1[x]:
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


def _table_lines(text: str) -> list[tuple[str, list[str]]]:
    """Each line of a table text with its tokens. Lines end at "\\n", "\\r\\n"
    or "\\r" and only spaces and tabs separate tokens, so a line of nothing
    else has none (it is blank); str.splitlines and str.split would also
    break at such characters as "\\x0c", "\\x1c", "\\x85" and NBSP."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [(line, list(filter(None, line.replace("\t", " ").split(" ")))) for line in lines]


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


def _cut_digits(numeral: str) -> str:
    """A decimal numeral for an error message, cut to its first digits and
    the digit count when long, as _quote cuts strings."""
    if len(numeral) <= 60:
        return numeral
    return f"{numeral[:40]}... ({len(numeral.lstrip('-'))} digits)"


def _cut_int(value: int) -> str:
    """_cut_digits(str(value)); an integer with more digits than str()
    converts (sys.get_int_max_str_digits()) is named by its bit length."""
    try:
        return _cut_digits(str(value))
    except ValueError:
        return f"<an integer of {value.bit_length()} bits>"


def _decimal(token: str) -> int | None:
    """The value of a token of ASCII digits, or None when it has more
    significant digits than int() converts (sys.get_int_max_str_digits();
    int() counts leading zeros too, so they are dropped before the retry)."""
    try:
        return int(token)
    except ValueError:
        significant = token.lstrip("0") or "0"
        return None if len(significant) > sys.get_int_max_str_digits() else int(significant)


def parse_group_text(text: str) -> GroupTable:
    return _parse_table_lines([(line, tokens) for line, tokens in _table_lines(text) if tokens])


def _parse_table_lines(lines: list[tuple[str, list[str]]]) -> GroupTable:
    """The group table of a text's non-blank lines, each with its tokens
    (_table_lines); the brace text parser passes each block's lines here."""
    if not lines:
        raise GroupTableError("empty table text")
    first, (size, *rest) = lines[0]
    if rest or not _is_decimal(size):
        raise GroupTableError(f"first line must be the carrier size, got {_quote(first)}")
    n = _decimal(size)
    if n is None or len(lines) != n + 1:
        shown = _cut_digits(size.lstrip("0") or "0")
        raise GroupTableError(f"expected {shown} table rows, got {len(lines) - 1}")
    rows = []
    for a, (line, tokens) in enumerate(lines[1:]):
        # The tokens are non-empty, so the row is all ASCII digits exactly
        # when their concatenation is.
        if not _is_decimal("".join(tokens)):
            raise GroupTableError(
                f"entries must be non-negative decimal integers, got row {_quote(line)}"
            )
        try:
            row = list(map(int, tokens))
        except ValueError:
            # A token longer than int() converts, perhaps by leading zeros.
            row = [_decimal(tok) for tok in tokens]
        if None in row:
            # A value too long for int() (4300 digits by default) lies
            # outside every carrier a text file can hold.
            b = row.index(None)
            raise GroupTableError(
                f"value {_cut_digits(tokens[b].lstrip('0'))} at cell {(a, b)} "
                f"is outside 0..{n - 1}"
            )
        rows.append(row)
    return GroupTable(n, rows)


def group_to_text(group: GroupTable) -> str:
    lines = [str(group.n)]
    lines.extend(" ".join(str(v) for v in row) for row in group.table)
    return "\n".join(lines) + "\n"


class _DuplicateKey(Exception):
    """A key repeated in one JSON object; raised inside the decoder, so it is
    not a ValueError that _decode_json would take for an oversized integer."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        raise _DuplicateKey(next(k for k, _ in pairs if k in seen or seen.add(k)))
    return obj


def _decode_json(text: str, error: type[ValueError]) -> object:
    """Decode JSON text; raise `error` if it is not JSON, repeats a key in an
    object (json keeps the last value silently) or nests too deeply for the
    decoder (which raises RecursionError, not a parse error)."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc}") from None
    except _DuplicateKey as exc:
        raise error(f"invalid JSON: duplicate key {_quote(exc.args[0])}") from None
    except RecursionError:
        raise error("invalid JSON: nested too deeply") from None
    except ValueError:
        # Not a JSONDecodeError: int() refused an integer literal with more
        # digits than sys.get_int_max_str_digits().
        raise error(
            f"an integer in the JSON has more than {sys.get_int_max_str_digits()} digits"
        ) from None


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
    return GroupTable(obj["n"], obj["table"])


def group_to_json(group: GroupTable) -> str:
    return json.dumps({"n": group.n, "table": [list(row) for row in group.table]})


#: The line breaks of json.dumps(..., indent=1) at nesting depths 0..7.
_JSON_BREAKS = tuple("\n" + " " * depth for depth in range(8))


def _indented_array(items: Sequence[str], depth: int) -> str:
    """json.dumps(array, indent=1) for an array nested `depth` (< 7) levels
    deep, given its items already encoded: each on a line of its own,
    indented depth + 1 spaces, and "]" on a line indented depth spaces ("[]"
    when empty). An item of several lines carries the indentation of its
    later lines itself. With an indent json runs its pure-Python encoder,
    several times slower than these joins."""
    if not items:
        return "[]"
    inner = _JSON_BREAKS[depth + 1]
    return f"[{inner}{(',' + inner).join(items)}{_JSON_BREAKS[depth]}]"
