"""Row masks: ``dep`` and ``_||_`` decided on the sub-teams of one
assignment space by an OR of precomputed ints.

Over a fixed space, each atom owns a bit field in one packed int per
space row, at its own offset, and sets the row's class bits there:

* ``dep(xs, ys)``: the bit of the row's ``xs`` class, then the bit of its
  ``xs ys`` class.  A team holds when both fields of its rows' OR have as
  many bits set: no ``xs`` value comes with two ``ys`` values.
* ``x _||_{z} y``, on the grid of the space's ``z``, ``x`` and ``y``
  classes: the row's ``(z, x, ·)`` cells, its ``(z, ·, y)`` cells and its
  one ``(z, x, y)`` cell, in three fields.  A team holds when the first
  two fields of its rows' OR meet in the third: every ``x`` and ``y``
  value that occur with a ``z`` value occur together with it.

Classes are equality classes of projections, as in the atom kernels that
read a team's rows, so both decide alike.
"""

from __future__ import annotations

from operator import itemgetter, or_
from typing import Callable, Hashable, Mapping, Sequence

from .formulas import Dep, Formula, Indep
from .teams import Row, Team, positions

#: Most bits that the row masks of one space may hold in all: the space's
#: rows times the class bits per row.  Past it no mask is built, and the
#: atoms are decided by reading the rows.
MASK_BITS = 1 << 22


class RowMasks:
    """The masks of some ``dep`` and ``_||_`` atoms over one space:
    ``rows`` maps each space row to its mask, and ``tests`` each atom's
    key to its test on an OR of masks.  Both are fixed when built."""

    __slots__ = ("rows", "tests")

    def __init__(self, rows: dict[Row, int], tests: dict[Hashable, Callable[[int], bool]]):
        self.rows = rows
        self.tests = tests

    @classmethod
    def build(
        cls, domain: tuple[str, ...], rows: Sequence[Row], formulas: Mapping[Hashable, Formula]
    ) -> RowMasks | None:
        """The masks of the ``dep`` and ``_||_`` atoms among ``formulas``,
        over ``domain``, on the space ``rows``.  None when there is no such
        atom, or when the masks would take more than :data:`MASK_BITS`
        bits, which the class counts tell before any mask is built."""
        atoms = [(key, f) for key, f in formulas.items() if type(f) in _FIELDS]
        if not atoms:
            return None
        fields, width = [], 0
        for _, atom in atoms:
            fields.append(_FIELDS[type(atom)](atom, domain, rows))
            width += fields[-1][0]
            if width * len(rows) > MASK_BITS:
                return None
        masks, tests, offset = [0] * len(rows), {}, 0
        for (key, _), (size, place) in zip(atoms, fields):
            own, tests[key] = place(offset)
            masks = list(map(or_, masks, own))
            offset += size
        return cls(dict(zip(rows, masks)), tests)

    def of(self, team: Team) -> int | None:
        """The OR of the masks of ``team``'s rows; None when a row lies
        outside the space."""
        get, bits = self.rows.get, 0
        for row in team.rows:
            mask = get(row)
            if mask is None:
                return None
            bits |= mask
        return bits


def _classes(domain: tuple[str, ...], variables: Sequence[str], rows: Sequence[Row]) -> tuple[list[int], int]:
    """Each row's class by its ``variables`` values, numbered in order of
    first occurrence, and the number of classes."""
    pos = positions(domain, variables)
    # one position projects to the bare value: the classes are the same
    project = itemgetter(*pos) if pos else lambda row: ()
    index: dict = {}
    return [index.setdefault(key, len(index)) for key in map(project, rows)], len(index)


def _dep_field(atom: Dep, domain: tuple[str, ...], rows: Sequence[Row]):
    """The width of ``dep``'s field, and ``place(offset)``: the rows'
    bits in the field at ``offset``, and the field's test."""
    keys, k = _classes(domain, atom.xs, rows)
    pairs, p = _classes(domain, atom.xs + atom.ys, rows)

    def place(offset: int):
        key_bits = ((1 << k) - 1) << offset
        pair_bits = ((1 << p) - 1) << (offset + k)

        def dep(bits: int) -> bool:
            return (bits & key_bits).bit_count() == (bits & pair_bits).bit_count()

        return [(1 << key | 1 << (k + pair)) << offset for key, pair in zip(keys, pairs)], dep

    return k + p, place


def _indep_field(atom: Indep, domain: tuple[str, ...], rows: Sequence[Row]):
    """As :func:`_dep_field`, for ``_||_``: cell ``(z, x, y)`` of the
    grid is bit ``(z * nx + x) * ny + y`` of each of the three fields."""
    (zs, nz), (xs, nx), (ys, ny) = (_classes(domain, v, rows) for v in (atom.cond, atom.xs, atom.ys))
    grid = nz * nx * ny
    line = (1 << ny) - 1  # the (z, x, ·) cells at z = x = 0
    column = sum(1 << i * ny for i in range(nx))  # the (z, ·, y) cells at z = y = 0

    def place(offset: int):
        cells = (1 << grid) - 1

        def indep(bits: int) -> bool:
            bits >>= offset
            return bits & (bits >> grid) & cells == (bits >> 2 * grid) & cells

        own = []
        for z, x, y in zip(zs, xs, ys):
            zx = (z * nx + x) * ny
            own.append((line << zx | column << grid + z * nx * ny + y | 1 << 2 * grid + zx + y) << offset)
        return own, indep

    return 3 * grid, place


#: The field of each atom that row masks decide.
_FIELDS = {Dep: _dep_field, Indep: _indep_field}
