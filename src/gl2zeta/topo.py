"""Surface specifications and the counting formulas for homomorphisms from
surface groups into GL(2,F_q) / PGL(2,F_q), with and without boundary
holonomy constraints, orientable or not, and their conjugation-quotient
versions via centralizer characters and induced traces.

All outputs are exact; every count is asserted to be a non-negative
integer before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycNumber
from .grp import ClassFunction, ConjClass
from .reptheory import CharacterTable, Irrep, Monomials, conjugate, rational_sum
from .zeta import zeta as zeta_sum, zeta_double, zeta_insert


@dataclass(frozen=True)
class SurfaceSpec:
    """A compact surface: genus, orientability and boundary insertions."""

    orientable: bool
    genus: int
    boundaries: tuple = ()

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if not self.orientable and self.genus < 1:
            raise ValueError("non-orientable surfaces need genus >= 1")
        object.__setattr__(self, "boundaries", tuple(self.boundaries))

    @property
    def euler_characteristic(self) -> int:
        """Of the closed surface, before removing boundary disks."""
        return 2 - 2 * self.genus if self.orientable else 2 - self.genus


@dataclass(frozen=True)
class HomCount:
    value: int
    normalization: str  # "raw |X|" or "|X/AdG|"


def _as_count(value, what: str) -> int:
    value = Fraction(value)
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(f"{what} = {value} is not a non-negative integer")
    return int(value)


# -- raw homomorphism counts ----------------------------------------------------


def hom_count(table: CharacterTable, spec: SurfaceSpec) -> HomCount:
    """|Hom(pi_1(surface), G)| from the character table."""
    g, r = spec.genus, len(spec.boundaries)
    order = table.order
    ctx = table.ctx
    if spec.orientable:
        weight = Fraction(order) ** (2 * g - 1)
        for c in spec.boundaries:
            weight *= ctx.sizes[ctx.class_index[c]]
        if r == 0:
            total = weight * zeta_sum(table, 2 * g - 2)
        else:
            total = weight * zeta_insert(table, spec.boundaries, 2 * g - 2)
        return HomCount(_as_count(total, "hom count"), "raw |X|")
    chi = 2 - g
    weight = Fraction(order) ** (g - 1)
    for c in spec.boundaries:
        weight *= ctx.sizes[ctx.class_index[c]]
    # irreps with FS indicator 0 drop out; no power is computed for them
    weights = [
        fs**g * Fraction(d) ** (chi - r) if fs else 0
        for fs, d in zip(table.fs, table.dims)
    ]
    cols = [table.column(c) for c in spec.boundaries]
    total = weight * rational_sum(table.n, weights, cols)
    return HomCount(_as_count(total, "hom count"), "raw |X|")


# -- centralizer characters ------------------------------------------------------


@dataclass(frozen=True)
class CentChar:
    """A linear character of an abelian centralizer, or a full-group irrep."""

    structure: str  # "mirabolic" | "split-torus" | "nonsplit-torus" | "full"
    params: tuple = ()
    irrep: Irrep | None = None  # for structure == "full"


class CentralizerData:
    """The centralizer H of one GL class: its irreducible characters and
    their induced traces.

    For abelian H, Ind_H^G rho(gamma) = (|C_G(gamma)|/|H|) * sum of rho over
    gamma^G meet H (the Frobenius formula), and that meet is explicit:
    {xI} for central gamma, {diag(x,y), diag(y,x)} in the split torus,
    {lam, lam^q} in the non-split torus, {x(1+uN) : u != 0} in the
    mirabolic.  Every class of one kind gives the same data.
    """

    def __init__(self, table: CharacterTable, cls: ConjClass):
        if table.group != "gl":
            raise ValueError("centralizer decomposition is built for the GL context")
        self.table = table
        self.cls = cls
        ctx = table.ctx
        self.ctx = ctx
        cent = ctx.centralizer(cls)
        self.structure = cent.structure
        self.order = cent.order

    def characters(self) -> list[CentChar]:
        q = self.ctx.q
        if self.structure == "full":
            return [CentChar("full", irrep=pi) for pi in self.table.irreps]
        if self.structure == "mirabolic":
            return [
                CentChar("mirabolic", (m, t))
                for m in range(q - 1)
                for t in range(q)
            ]
        if self.structure == "split-torus":
            return [
                CentChar("split-torus", (m1, m2))
                for m1 in range(q - 1)
                for m2 in range(q - 1)
            ]
        return [CentChar("nonsplit-torus", (m,)) for m in range(q * q - 1)]

    def char_dims(self) -> list[int]:
        """Dimensions of the characters, in `characters()` order."""
        if self.structure == "full":
            return self.table.dims
        return [1] * self.order

    def char_fs(self) -> list[int]:
        """Frobenius-Schur indicators, in `characters()` order: a linear
        character has indicator 1 when its square is trivial, else 0."""
        if self.structure == "full":
            return self.table.fs
        q = self.ctx.q
        real = [1 if (2 * m) % (q - 1) == 0 else 0 for m in range(q - 1)]
        if self.structure == "mirabolic":
            # psi_t squares to psi_2t, trivial when t = 0 or p = 2
            return [real[m] if q % 2 == 0 or t == 0 else 0
                    for m in range(q - 1) for t in range(q)]
        if self.structure == "split-torus":
            return [real[m1] * real[m2] for m1 in range(q - 1) for m2 in range(q - 1)]
        return [1 if (2 * m) % (q * q - 1) == 0 else 0 for m in range(q * q - 1)]

    def meet_sum(self, rho: CentChar, gamma: ConjClass) -> Monomials:
        """sum of rho over gamma^G meet H, as monomials in zeta_n, n = q^2 - 1."""
        q, n = self.ctx.q, self.table.n
        structure, kind = self.structure, gamma.kind
        if structure == "full":
            raise ValueError("full-group characters are table rows")
        # class dlogs (`GLContext.dlogs`); a base-field dlog enters zeta_n as i*(q+1)
        d = self.ctx.dlogs[self.ctx.class_index[gamma]]
        if kind == "central":
            # psi_t(0) = 1 on the mirabolic; x embeds in F_{q^2} as G^(i*(q+1))
            m = sum(rho.params) if structure == "split-torus" else rho.params[0]
            return ((1, m * d[0] * (q + 1) % n),)
        if structure == "mirabolic" and kind == "unipotent":
            # sum over u != 0 of psi_t(u) = q [t = 0] - 1
            m, t = rho.params
            return ((q - 1 if t == 0 else -1, m * d[0] * (q + 1) % n),)
        if structure == "split-torus" and kind == "diagonal":
            m1, m2 = rho.params
            i, j = (x * (q + 1) for x in d)
            return ((1, (m1 * i + m2 * j) % n), (1, (m1 * j + m2 * i) % n))
        if structure == "nonsplit-torus" and kind == "elliptic":
            (m,) = rho.params
            k = m * d[0]
            return ((1, k % n), (1, k * q % n))
        return ()

    def induced_column(self, gamma: ConjClass) -> tuple[Fraction, list]:
        """(s, col) with Ind_H^G rho(gamma) = s * col[i] for the i-th character."""
        if self.structure == "full":
            return Fraction(1), self.table.column(gamma)
        scale = Fraction(self.ctx.centralizer(gamma).order, self.order)
        return scale, [self.meet_sum(rho, gamma) for rho in self.characters()]


def induced_char_value(
    table: CharacterTable, host: ConjClass, rho: CentChar, gamma: ConjClass
) -> CycNumber:
    """Tr(Ind_H^G rho)(gamma) for H the centralizer of `host`, in Q(zeta_n).

    Whole-group case: induction is trivial and this is chi_rho(gamma).
    Abelian cases: the Frobenius formula (see `CentralizerData`).
    """
    data = CentralizerData(table, host)
    if data.structure == "full":
        return table.value(rho.irrep, gamma)
    scale = Fraction(table.ctx.centralizer(gamma).order, data.order)
    return CycNumber.from_monomials(table.n, [(c * scale, k) for c, k in data.meet_sum(rho, gamma)])


# -- quotient counts -------------------------------------------------------------


def quotient_count(table: CharacterTable, spec: SurfaceSpec) -> HomCount:
    """|Hom(pi_1(surface), G)/Ad G|: Burnside over centralizers, one host per
    class kind weighted by the kind's summed class sizes, with induced traces."""
    if table.group != "gl":
        raise ValueError(
            "quotient counts use the GL centralizer structure; "
            "use the oracle for other groups"
        )
    ctx = table.ctx
    g, r = spec.genus, len(spec.boundaries)
    order = table.order
    hosts: dict[str, tuple[ConjClass, int]] = {}
    for c, size in zip(ctx.classes, ctx.sizes):
        host, kind_size = hosts.get(c.kind, (c, 0))
        hosts[c.kind] = (host, kind_size + size)
    weight = Fraction(1, order ** (r + 1))
    for c in spec.boundaries:
        weight *= ctx.sizes[ctx.class_index[c]]
    exponent = (2 * g + r - 1) if spec.orientable else (g + r - 1)
    total = Fraction(0)
    for host, kind_size in hosts.values():
        data = CentralizerData(table, host)
        if spec.orientable:
            coefs = [Fraction(d) ** (-(2 * g - 2 + r)) for d in data.char_dims()]
        else:
            # characters with FS indicator 0 drop out; no power is computed for them
            coefs = [
                fs**g * Fraction(d) ** (-(g - 2 + r)) if fs else 0
                for fs, d in zip(data.char_fs(), data.char_dims())
            ]
        scale = kind_size * Fraction(data.order) ** exponent
        cols = []
        for gamma in spec.boundaries:
            s, col = data.induced_column(gamma)
            scale *= s
            cols.append(col)
        total += rational_sum(table.n, coefs, cols) * scale
    total *= weight
    if r == 0 and spec.orientable:
        double = Fraction(order) ** (2 * g - 2) * zeta_double(table, 2 * g - 2)
        assert total == double, "centralizer sum disagrees with the double"
    return HomCount(_as_count(total, "quotient count"), "|X/AdG|")


# -- spectral class functions ------------------------------------------------------


def theta_torus_spectral(table: CharacterTable) -> ClassFunction:
    """|G| * sum over pi of chi_pi / dim(pi), as exact class-function values."""
    weights = [Fraction(table.order, d) for d in table.dims]
    return ClassFunction(table.ctx, [
        _as_count(rational_sum(table.n, weights, [table.column(c)]), "theta_torus value")
        for c in table.ctx.classes
    ])


def theta_square_spectral(table: CharacterTable) -> ClassFunction:
    """sum over pi of fs(pi) * chi_pi."""
    return ClassFunction(table.ctx, [
        _as_count(rational_sum(table.n, table.fs, [table.column(c)]), "theta_square value")
        for c in table.ctx.classes
    ])


def class_indicator_spectral(table: CharacterTable, c: ConjClass) -> ClassFunction:
    """The indicator of a conjugacy class through its character expansion
    (|O|/|G|) sum over pi of chi_pi(gamma^-1) chi_pi."""
    ctx = table.ctx
    inv_col = conjugate(table.column(c), table.n)  # chi(gamma^-1) = conj chi(gamma)
    w = Fraction(ctx.sizes[ctx.class_index[c]], table.order)
    ones = [1] * len(table.irreps)
    values = []
    for d in ctx.classes:
        v = rational_sum(table.n, ones, [inv_col, table.column(d)])
        assert (v * w).denominator == 1
        values.append(int(v * w))
    return ClassFunction(ctx, values)


def convolve_spectral(
    table: CharacterTable, f: ClassFunction, g: ClassFunction
) -> ClassFunction:
    """Counting convolution computed in the Fourier basis, where it is
    diagonal: coefficients multiply with a |G|/dim factor."""
    fc = fourier_coefficients(table, f)
    gc = fourier_coefficients(table, g)
    weights = [a * b * Fraction(table.order, d) for a, b, d in zip(fc, gc, table.dims)]
    return ClassFunction(table.ctx, [
        rational_sum(table.n, weights, [table.column(c)]) for c in table.ctx.classes
    ])


def fourier_coefficients(table: CharacterTable, f: ClassFunction) -> list[Fraction]:
    """<f, chi_pi> = (1/|G|) sum over g of f(g) conj(chi_pi(g)), for a
    rational-valued f; raises ArithmeticError when a coefficient is not rational."""
    weights = [size * v for size, v in zip(table.ctx.sizes, f.values)]
    return [
        rational_sum(table.n, weights, [conjugate(table.row(pi), table.n)]) / table.order
        for pi in table.irreps
    ]
