"""Row masks: conjunctions of ``dep`` and ``_||_`` decided on the
sub-teams of one set of rows by an OR of precomputed ints.

The rows are an assignment space, whose sub-teams a sweep's plan decides,
or the rows of one team that a split search covers by sub-teams of it
(:func:`ors` gives the OR of any such sub-team's masks).  Over those rows,
each atom sets the row's class bits in one packed int per row.  The
``dep`` fields come first, then three aligned sections for the ``_||_``
atoms, each atom at the same offset in all three:

* ``dep(xs, ys)``: the bit of the row's ``xs`` class, then the bit of its
  ``xs ys`` class.  A team holds when both parts of its rows' OR have as
  many bits set: no ``xs`` value comes with two ``ys`` values.
* ``x _||_{z} y``, on the grid of the space's ``z``, ``x`` and ``y``
  classes: the row's ``(z, x, ·)`` cells, its ``(z, ·, y)`` cells and its
  ``(z, x, y)`` cell, one section each.  A team holds when, on the atom's
  cells, the first two sections of its rows' OR meet in the third: every
  ``x`` and ``y`` value that occur with a ``z`` value occur together.

A conjunction of such atoms is one test on the union of their bits, exact
by two invariants of every team.  In each ``dep`` field it has at least as
many pair classes as key classes, so the popcounts of the union agree
exactly when those of each field do.  Each ``(z, x, y)`` cell it has lies
in its ``(z, x, ·)`` and ``(z, ·, y)`` cells, so the meet of the first two
sections contains the third, and equals it on the union exactly when on
each atom's cells.

Classes are equality classes of projections, as in the atom kernels that
read a team's rows, so both decide alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .formulas import Dep, Formula, Indep
from .teams import Row, Team, positions, project

#: Most bits that the row masks of one space may hold in all: the space's
#: rows times the class bits per row.  Past it no mask is built, and the
#: atoms are decided by reading the rows.
MASK_BITS = 1 << 22


@dataclass(frozen=True, eq=False, slots=True)
class RowMasks:
    """The masks of some ``dep`` and ``_||_`` atoms over one space of rows:
    ``rows`` maps each row to its mask, ``fields`` each atom to its
    key, pair and first-section cell bits, and ``grid`` is the width of
    each ``_||_`` section."""

    rows: dict[Row, int]
    fields: dict[Formula, tuple[int, int, int]]
    grid: int

    @classmethod
    def build(cls, domain: tuple[str, ...], rows: Sequence[Row], formulas: Iterable[Formula]) -> RowMasks | None:
        """The masks of the ``dep`` and ``_||_`` atoms among ``formulas``,
        over ``domain``, on the space ``rows``.  None when there is no such
        atom, or when the masks would take more than :data:`MASK_BITS`
        bits, which the class counts tell before any mask is built."""
        atoms = sorted((f for f in formulas if type(f) in (Dep, Indep)), key=lambda f: type(f) is Indep)
        if not atoms:
            return None
        classes, fixed, grid = [], 0, 0
        for atom in atoms:
            if type(atom) is Dep:
                (_, k), (_, p) = grids = [_classes(domain, v, rows) for v in (atom.xs, atom.xs + atom.ys)]
                fixed += k + p
            else:
                (_, nz), (_, nx), (_, ny) = grids = [_classes(domain, v, rows) for v in (atom.cond, atom.xs, atom.ys)]
                grid += nz * nx * ny
            classes.append(grids)
            if (fixed + 3 * grid) * len(rows) > MASK_BITS:
                return None
        masks, fields, offset = [0] * len(rows), {}, 0
        for atom, grids in zip(atoms, classes):
            if type(atom) is Dep:
                (keys, k), (pairs, p) = grids
                fields[atom] = (((1 << k) - 1) << offset, ((1 << p) - 1) << offset + k, 0)
                own = [1 << key | 1 << k + pair for key, pair in zip(keys, pairs)]
                size = k + p
            else:
                (zs, nz), (xs, nx), (ys, ny) = grids
                size = nz * nx * ny
                fields[atom] = (0, 0, ((1 << size) - 1) << offset)
                line = (1 << ny) - 1  # the (z, x, ·) cells at z = x = 0
                column = sum(1 << i * ny for i in range(nx))  # the (z, ·, y) cells at z = y = 0
                own = []
                for z, x, y in zip(zs, xs, ys):
                    zx = (z * nx + x) * ny
                    own.append(line << zx | column << grid + z * nx * ny + y | 1 << 2 * grid + zx + y)
            masks = [mask | bits << offset for mask, bits in zip(masks, own)]
            offset += size
        return cls(dict(zip(rows, masks)), fields, grid)

    def test(self, atoms: Iterable[Formula]) -> Callable[[int], bool]:
        """The test of the conjunction of ``atoms``, which must be among
        the masks' atoms, on an OR of masks."""
        keys = pairs = cells = 0
        for atom in atoms:
            k, p, c = self.fields[atom]
            keys, pairs, cells = keys | k, pairs | p, cells | c
        grid, third = self.grid, 2 * self.grid
        return lambda bits: (
            (bits & keys).bit_count() == (bits & pairs).bit_count()
            and bits & bits >> grid & cells == bits >> third & cells
        )

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
    index: dict = {}
    return [index.setdefault(key, len(index)) for key in map(project(positions(domain, variables)), rows)], len(index)


def ors(masks: Sequence[int]) -> Callable[[int], int]:
    """The OR of the ``masks`` that a bit mask over their positions picks,
    as a function of that bit mask.  Each 8 masks get one table of the ORs
    of their 256 picks, so set-up is linear in the number of masks and an
    OR takes one lookup per 8 positions."""
    tables = []
    for start in range(0, len(masks), 8):
        table = [0]
        for mask in masks[start:start + 8]:
            table += [bits | mask for bits in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__

    def of(picked: int) -> int:
        bits = 0
        for table in tables:
            bits |= table[picked & 255]
            picked >>= 8
        return bits

    return of
