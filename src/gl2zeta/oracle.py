"""Brute-force verification engine.

Everything here is element-level enumeration over an explicit group table:
commutator counts, squaring counts, homomorphism counts, conjugation
orbits.  It shares only the field/matrix arithmetic with the formula-side
modules and never consults the character table, so agreement between the
two paths is a genuine cross-check.

No loop over G runs inside another loop over G.  The class functions and
structure constants are read off one column x -> x r per probed element r
(each class representative, plus a second member that checks the result is
a class function), so the cost is O(|G| * #classes) matrix products.
Hom-set counts are assembled as exact integer convolutions of those class
functions, so genus and boundary count are free.

Only the explicit-orbit quotient count (tiny cases) needs the full Cayley
table.  It is composed from the rows of a few generators: |G| * #gens matrix
products (#gens is 2-4 for GL with q <= 8) and |G|^2 integer lookups.
"""

from __future__ import annotations

from array import array
from functools import cached_property

from .ffield import CapExceeded
from .grp import ClassFunction, ConjClass, mat_inv, mat_mul

DEFAULT_ELEMENT_CAP = 4000
# the explicit-orbit path holds the |G|^2 Cayley table; --deep does not raise this
CAYLEY_TABLE_CAP = 4000


class GroupTable:
    """Explicit element list with products, inverses and class data.

    Class representatives are the first member of each class in enumeration
    order, and class sizes are counted from `class_of`.
    """

    def __init__(self, ctx, cap: int = DEFAULT_ELEMENT_CAP):
        if ctx.order > cap:
            raise CapExceeded(
                f"|{ctx.group}(2,F_{ctx.q})| = {ctx.order} exceeds the enumeration cap {cap}"
            )
        self.ctx = ctx
        F = ctx.field
        self.elements = list(ctx.enumerate_group())
        assert len(self.elements) == ctx.order
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.n = len(self.elements)
        normalize = ctx.normalize if ctx.group == "pgl" else (lambda m: m)
        self._normalize = normalize
        self.identity = self.index[normalize((1, 0, 0, 1))]
        self.inv = [self.index[normalize(mat_inv(F, m))] for m in self.elements]
        self.class_of = [ctx.class_index[ctx.classify(m)] for m in self.elements]
        ncls = len(ctx.classes)
        self.sizes = [0] * ncls
        # the first two members of each class: the rep and a class-function probe
        self._probes: list[list[int]] = [[] for _ in range(ncls)]
        for x, ci in enumerate(self.class_of):
            self.sizes[ci] += 1
            if len(self._probes[ci]) < 2:
                self._probes[ci].append(x)
        self.reps = [probes[0] for probes in self._probes]
        self._columns: dict[int, list[int]] = {}
        self._centralizers: dict[int, tuple] = {}
        self._squares: list[int] | None = None
        self._theta: dict[str, list[int]] = {}
        self._struct = None

    def product(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]: one matrix product."""
        F = self.ctx.field
        return self.index[self._normalize(mat_mul(F, self.elements[i], self.elements[j]))]

    def mul(self, i: int, j: int) -> int:
        """Product through the full Cayley table (explicit-orbit path)."""
        return self.cayley_rows[i][j]

    @cached_property
    def cayley_rows(self) -> list[array]:
        """Row i is x -> index of elements[i] * x, as a 2-byte array when
        |G| < 65536, else 4-byte.  Generators are picked greedily in
        enumeration order, each outside the subgroup generated so far, at |G|
        products apiece; closing the subgroup under left multiplication
        composes every other row, row(s c) = row(s) o row(c)."""
        n = self.n
        typecode = "H" if n < 1 << 16 else "I"
        rows: list = [None] * n
        rows[self.identity] = array(typecode, range(n))
        gens: list[int] = []
        reached = [self.identity]
        for x in range(n):
            if rows[x] is not None:
                continue
            rows[x] = array(typecode, [self.product(x, j) for j in range(n)])
            gens.append(x)
            reached.append(x)
            for c in reached:  # grows while it is walked
                for s in gens:
                    y = rows[s][c]
                    if rows[y] is None:
                        rows[y] = array(typecode, map(rows[s].__getitem__, rows[c]))
                        reached.append(y)
        return rows

    def column(self, r: int) -> list[int]:
        """x -> index of x * elements[r], for every x; memoised per r."""
        col = self._columns.get(r)
        if col is None:
            col = [self.product(x, r) for x in range(self.n)]
            self._columns[r] = col
        return col

    def centralizer(self, r: int) -> tuple[list[int], list[list[int]]]:
        """C_G(elements[r]) as (member indices, its multiplication table in
        member positions).  Membership takes one row and one column of r, the
        table |C_G|^2 products; memoised."""
        cent = self._centralizers.get(r)
        if cent is None:
            col = self.column(r)
            members = [h for h in range(self.n) if self.product(r, h) == col[h]]
            pos = {g: i for i, g in enumerate(members)}
            mul = [[pos[self.product(g, h)] for h in members] for g in members]
            cent = self._centralizers[r] = (members, mul)
        return cent

    def squares(self) -> list[int]:
        """h -> index of h^2, one product per element; memoised."""
        if self._squares is None:
            self._squares = [self.product(h, h) for h in range(self.n)]
        return self._squares

    def _class_values(self, at) -> list:
        """at(rep) for each class, asserted equal at a second member of every
        class of size > 1."""
        values = []
        for probes in self._probes:
            v = at(probes[0])
            assert all(at(x) == v for x in probes[1:]), "not a class function"
            values.append(v)
        return values

    # -- enumerative class functions --------------------------------------

    def theta_torus(self) -> ClassFunction:
        """theta(k) = #{(a,b): a b a^-1 b^-1 = k} = sum over x of [x k ~ x] |C_G(x)|.

        With x = a^-1 the relation reads b x b^-1 = x k, which has |C_G(x)|
        solutions b when x k ~ x and none otherwise."""
        if "torus" not in self._theta:
            cls, n = self.class_of, self.n
            cent = [n // s for s in self.sizes]

            def at(k):
                col = self.column(k)
                return sum(cent[cls[x]] for x in range(n) if cls[col[x]] == cls[x])

            values = self._class_values(at)
            assert sum(v * s for v, s in zip(values, self.sizes)) == n * n
            self._theta["torus"] = values
        return ClassFunction(self.ctx, self._theta["torus"])

    def theta_square(self) -> ClassFunction:
        """theta(g) = #{h: h^2 = g}."""
        if "square" not in self._theta:
            per_element = [0] * self.n
            for s in self.squares():
                per_element[s] += 1
            values = self._class_values(per_element.__getitem__)
            assert sum(v * s for v, s in zip(values, self.sizes)) == self.n
            self._theta["square"] = values
        return ClassFunction(self.ctx, self._theta["square"])

    def delta_identity(self) -> ClassFunction:
        return self.class_indicator(self.ctx.classes[self.class_of[self.identity]])

    def class_indicator(self, c: ConjClass) -> ClassFunction:
        values = [0] * len(self.ctx.classes)
        values[self.ctx.class_index[c]] = 1
        return ClassFunction(self.ctx, values)

    # -- convolution -------------------------------------------------------

    def _structure_constants(self):
        """K[A][B][C] = #{(a,b) in A x B : ab = rep(C)} = #{a in A : a^-1 rep(C) in B}."""
        if self._struct is None:
            ncls = len(self.ctx.classes)
            cls, inv = self.class_of, self.inv

            def at(k):
                col = self.column(k)
                M = [[0] * ncls for _ in range(ncls)]
                for a in range(self.n):
                    M[cls[a]][cls[col[inv[a]]]] += 1
                return M

            per_class = self._class_values(at)  # per_class[C][A][B]
            sizes = self.sizes
            K = [
                [[per_class[C][A][B] for C in range(ncls)] for B in range(ncls)]
                for A in range(ncls)
            ]
            for A in range(ncls):
                for B in range(ncls):
                    assert sum(k * s for k, s in zip(K[A][B], sizes)) == sizes[A] * sizes[B]
            self._struct = K
        return self._struct

    def convolve(self, f: ClassFunction, g: ClassFunction) -> ClassFunction:
        """Counting convolution (f * g)(x) = sum over ab = x of f(a) g(b)."""
        K = self._structure_constants()
        ncls = len(self.ctx.classes)
        out = [0] * ncls
        for A in range(ncls):
            fa = f.values[A]
            if not fa:
                continue
            KA = K[A]
            for B in range(ncls):
                gb = g.values[B]
                if not gb:
                    continue
                w = fa * gb
                row = KA[B]
                for C in range(ncls):
                    if row[C]:
                        out[C] += w * row[C]
        return ClassFunction(self.ctx, out)


# -- hom-set counting ---------------------------------------------------------


def brute_hom_count(table: GroupTable, spec) -> int:
    """|Hom(pi_1(surface), G)| with optional boundary-class constraints."""
    if not spec.orientable and spec.genus < 1:
        raise ValueError("non-orientable surfaces need genus >= 1")
    f = table.delta_identity()
    theta = table.theta_torus() if spec.orientable else table.theta_square()
    for _ in range(spec.genus):
        f = table.convolve(f, theta)
    for c in spec.boundaries:
        f = table.convolve(f, table.class_indicator(c))
    val = f(table.ctx.classes[table.class_of[table.identity]])
    assert val >= 0
    return val


def _hom_count_subset(table: GroupTable, members: list[int], mul, spec) -> int:
    """|Hom| into the subgroup given by element indices and its own
    multiplication table, boundaries still constrained to the ambient
    conjugacy classes.  Element-space dynamic programming; fine for the small
    centralizers this is used on."""
    pos = {g: i for i, g in enumerate(members)}
    m = len(members)
    theta = [0] * m
    if spec.orientable:
        inv = [pos[table.inv[g]] for g in members]
        for a in range(m):
            for b in range(m):
                theta[mul[mul[a][b]][inv[mul[b][a]]]] += 1
    else:
        for h in range(m):
            theta[mul[h][h]] += 1
    vec = [0] * m
    vec[pos[table.identity]] = 1
    for _ in range(spec.genus):
        out = [0] * m
        for i in range(m):
            vi = vec[i]
            if not vi:
                continue
            for j in range(m):
                if theta[j]:
                    out[mul[i][j]] += vi * theta[j]
        vec = out
    for c in spec.boundaries:
        ci = table.ctx.class_index[c]
        sel = [j for j, g in enumerate(members) if table.class_of[g] == ci]
        out = [0] * m
        for i in range(m):
            vi = vec[i]
            if not vi:
                continue
            for j in sel:
                out[mul[i][j]] += vi
        vec = out
    return vec[pos[table.identity]]


def brute_quotient_count(table: GroupTable, spec, method: str = "burnside") -> int:
    """|Hom(...)/Ad G| by Burnside over centralizers, or by explicit orbit
    partition of the Hom-set (method="orbits", tiny cases only).

    A central host fixes all of Hom and takes the convolution count on G;
    every other host counts inside its own (small) centralizer."""
    if method == "orbits":
        return _orbit_quotient_count(table, spec)
    if method != "burnside":
        raise ValueError("method must be 'burnside' or 'orbits'")
    total = 0
    whole = None
    for size, rep in zip(table.sizes, table.reps):
        if size == 1:
            if whole is None:
                whole = brute_hom_count(table, spec)
            fixed = whole
        else:
            fixed = _hom_count_subset(table, *table.centralizer(rep), spec)
        total += size * fixed
    assert total % table.n == 0, "Burnside sum must divide evenly"
    return total // table.n


def _orbit_quotient_count(table: GroupTable, spec) -> int:
    if table.n > CAYLEY_TABLE_CAP:
        raise CapExceeded(f"orbit enumeration needs |G| <= {CAYLEY_TABLE_CAP}, not {table.n}")
    tuples = _enumerate_hom_tuples(table, spec)
    seen: set[tuple] = set()
    orbits = 0
    for t in tuples:
        if t in seen:
            continue
        orbits += 1
        for p in range(table.n):
            pinv = table.inv[p]
            conj = tuple(table.mul(table.mul(p, g), pinv) for g in t)
            seen.add(conj)
    return orbits


def _enumerate_hom_tuples(table: GroupTable, spec) -> list[tuple]:
    """All solutions of the surface-group relation, as element-index tuples.

    Exponential in genus; guarded by a hard size check.
    """
    n = table.n
    g, r = spec.genus, len(spec.boundaries)
    size = 2 * g + r if spec.orientable else g + r
    if n**size > 4_000_000:
        raise CapExceeded("orbit enumeration too large; use method='burnside'")
    boundary_sets = [
        [x for x in range(n) if table.class_of[x] == table.ctx.class_index[c]]
        for c in spec.boundaries
    ]
    out = []

    def extend(prefix: tuple, acc: int, depth: int):
        # acc = product of the relator so far
        if depth == size:
            if acc == table.identity:
                out.append(prefix)
            return
        if spec.orientable and depth < 2 * g:
            if depth % 2 == 0:
                for a in range(n):
                    extend(prefix + (a,), acc, depth + 1)
            else:
                a = prefix[-1]
                for b in range(n):
                    comm = table.mul(table.mul(a, b), table.inv[table.mul(b, a)])
                    extend(prefix + (b,), table.mul(acc, comm), depth + 1)
            return
        if not spec.orientable and depth < g:
            for x in range(n):
                extend(prefix + (x,), table.mul(acc, table.mul(x, x)), depth + 1)
            return
        bi = depth - (2 * g if spec.orientable else g)
        for x in boundary_sets[bi]:
            extend(prefix + (x,), table.mul(acc, x), depth + 1)

    extend((), table.identity, 0)
    return out
