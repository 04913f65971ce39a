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
from .grp import ClassFunction, ConjClass, Mat, mat_inv, mat_mul
from .reptheory import CharacterTable, Irrep, monomial_sum
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
    if isinstance(value, CycNumber):
        value = value.as_rational()
        if value is None:
            raise ArithmeticError(f"{what} is not rational: table bug")
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
        for fs, d in zip(map(table.fs_indicator, table.irreps), table.dims)
    ]
    cols = [table.column(c) for c in spec.boundaries]
    total = weight * monomial_sum(table.n, weights, cols).as_rational()
    return HomCount(_as_count(total, "hom count"), "raw |X|")


# -- centralizer characters ------------------------------------------------------


@dataclass(frozen=True)
class CentChar:
    """A linear character of an abelian centralizer, or a full-group irrep."""

    structure: str  # "mirabolic" | "split-torus" | "nonsplit-torus" | "full"
    params: tuple = ()
    irrep: Irrep | None = None  # for structure == "full"


class CentralizerData:
    """Concrete subgroup data for the centralizer of one GL class."""

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
        self.conductor = ctx.field.p * table.n  # additive characters need zeta_p
        if self.structure == "nonsplit-torus":
            lam = cls.params[0]
            self._gen_mat = ctx.elliptic_rep(lam)
            self._lam = lam

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

    def char_dim(self, rho: CentChar) -> int:
        return self.table.dim(rho.irrep) if rho.structure == "full" else 1

    def char_fs(self, rho: CentChar) -> int:
        """Frobenius-Schur indicator of a centralizer irreducible."""
        q = self.ctx.q
        if rho.structure == "full":
            return self.table.fs_indicator(rho.irrep)
        if rho.structure == "mirabolic":
            m, t = rho.params
            sq_trivial = (2 * m) % (q - 1) == 0 and (
                q % 2 == 0 or t == 0
            )
            return 1 if sq_trivial else 0
        if rho.structure == "split-torus":
            m1, m2 = rho.params
            return 1 if (2 * m1) % (q - 1) == 0 and (2 * m2) % (q - 1) == 0 else 0
        return 1 if (2 * rho.params[0]) % (q * q - 1) == 0 else 0

    def decompose(self, m: Mat):
        """Membership test; returns structure-specific coordinates or None."""
        F, E = self.ctx.field, self.ctx.ext
        a, b, c, d = m
        if self.structure == "full":
            return m
        if self.structure == "mirabolic":
            if c == 0 and a == d and a != 0:
                return (a, F.mul(b, F.inv(a)))  # [[a, a*u], [0, a]]
            return None
        if self.structure == "split-torus":
            if b == 0 and c == 0:
                return (a, d)
            return None
        # nonsplit torus: m = a*I + c*c4(lam)
        lam = self._lam
        _, gb, _, gd = self._gen_mat
        if b == F.mul(c, gb) and d == F.add(a, F.mul(c, gd)):
            return E.add(E.embed(a), E.mul(E.embed(c), lam))
        return None

    def char_value_power(self, rho: CentChar, coords) -> int:
        """Exponent of the character value as a power of zeta_{p*(q^2-1)}."""
        F, E, q = self.ctx.field, self.ctx.ext, self.ctx.q
        p = F.p
        n = self.table.n
        P = self.conductor
        if rho.structure == "mirabolic":
            a, u = coords
            m, t = rho.params
            mult = (m * F.dlog(a) * (q + 1) * p) % P
            add = (F.trace_to_prime(F.mul(t, u)) * n) % P
            return (mult + add) % P
        if rho.structure == "split-torus":
            a, d = coords
            m1, m2 = rho.params
            return ((m1 * F.dlog(a) + m2 * F.dlog(d)) * (q + 1) * p) % P
        if rho.structure == "nonsplit-torus":
            (m,) = rho.params
            return (m * E.dlog(coords) * p) % P
        raise ValueError("full-group characters are not monomial")


def _conjugates(ctx, gamma: ConjClass) -> dict:
    """Multiset {x gamma~ x^-1 : x in G} for the representative gamma~, as
    matrix -> count (one pass over G)."""
    F = ctx.field
    rep = ctx.representative(gamma)
    counts: dict = {}
    for x in ctx.enumerate_group():
        t = mat_mul(F, mat_mul(F, x, rep), mat_inv(F, x))
        counts[t] = counts.get(t, 0) + 1
    return counts


def _in_centralizer(data: CentralizerData, conjugates: dict) -> dict:
    """The conjugates that lie in the centralizer, as coordinate -> count."""
    counts: dict = {}
    for t, cnt in conjugates.items():
        coords = data.decompose(t)
        if coords is not None:
            counts[coords] = counts.get(coords, 0) + cnt
    return counts


def _conjugate_counts(table: CharacterTable, host: ConjClass, gamma: ConjClass):
    """Multiset {x gamma~ x^-1 : x in G} intersected with the centralizer of
    `host`, as coordinate -> count."""
    data = CentralizerData(table, host)
    return data, _in_centralizer(data, _conjugates(table.ctx, gamma))


def _induced_trace(data: CentralizerData, rho: CentChar, counts: dict) -> CycNumber:
    """(1/|H|) sum of rho over the conjugates in H, given as coordinate -> count."""
    acc: dict[int, int] = {}
    for coords, cnt in counts.items():
        k = data.char_value_power(rho, coords)
        acc[k] = acc.get(k, 0) + cnt
    return CycNumber(data.conductor, acc) * Fraction(1, data.order)


def induced_char_value(
    table: CharacterTable, host: ConjClass, rho: CentChar, gamma: ConjClass
) -> CycNumber:
    """Tr(Ind_H^G rho)(gamma) for H the centralizer of `host`.

    Whole-group case: induction is trivial and this is chi_rho(gamma).
    Abelian cases: (1/|H|) sum over x in G with x gamma x^-1 in H of
    rho(x gamma x^-1).  Values live in Q(zeta_{p(q^2-1)}).
    """
    data = CentralizerData(table, host)
    if data.structure == "full":
        return table.value(rho.irrep, gamma).lift(data.conductor)
    return _induced_trace(data, rho, _in_centralizer(data, _conjugates(table.ctx, gamma)))


# -- quotient counts -------------------------------------------------------------


def quotient_count(table: CharacterTable, spec: SurfaceSpec) -> HomCount:
    """|Hom(pi_1(surface), G)/Ad G| via the centralizer decomposition."""
    if table.group != "gl":
        raise ValueError(
            "quotient counts use the GL centralizer structure; "
            "use the oracle for other groups"
        )
    ctx = table.ctx
    g, r = spec.genus, len(spec.boundaries)
    order = table.order
    if r == 0:
        total = Fraction(0)
        for c in ctx.classes:
            data = CentralizerData(table, c)
            if spec.orientable:
                if data.structure == "full":
                    inner = zeta_sum(table, 2 * g - 2)
                else:
                    inner = Fraction(data.order)  # |C| characters of dim 1
                total += Fraction(data.order) ** (2 * g - 2) * inner
            else:
                chi = 2 - g
                inner = Fraction(0)
                for rho in data.characters():
                    fs = data.char_fs(rho)
                    if fs:
                        inner += Fraction(fs * data.char_dim(rho)) ** chi
                total += Fraction(data.order) ** (-chi) * inner
        if spec.orientable:
            double = order ** (2 * g - 2) * zeta_double(table, 2 * g - 2)
            assert total == double, "centralizer sum disagrees with the double"
        return HomCount(_as_count(total, "quotient count"), "|X/AdG|")

    # boundary case: Burnside over centralizers with induced traces
    P = ctx.field.p * table.n
    weight = Fraction(1, order ** (r + 1))
    for c in spec.boundaries:
        weight *= ctx.sizes[ctx.class_index[c]]
    conjugates = {gamma: _conjugates(ctx, gamma) for gamma in spec.boundaries}
    total = CycNumber.zero(P)
    for host_i, host in enumerate(ctx.classes):
        data = CentralizerData(table, host)
        chars = data.characters()
        gamma_traces = []
        for gamma in spec.boundaries:
            if data.structure == "full":
                traces = [table.value(rho.irrep, gamma).lift(P) for rho in chars]
            else:
                counts = _in_centralizer(data, conjugates[gamma])
                traces = [_induced_trace(data, rho, counts) for rho in chars]
            gamma_traces.append(traces)
        csum = CycNumber.zero(P)
        for rho_i, rho in enumerate(chars):
            dim = data.char_dim(rho)
            if spec.orientable:
                coef = Fraction(dim) ** (-(2 * g - 2 + r))
            else:
                fs = data.char_fs(rho)
                if fs == 0:
                    continue
                coef = Fraction(fs) ** g * Fraction(dim) ** (-(g - 2 + r))
            term = CycNumber.from_rational(P, coef)
            for traces in gamma_traces:
                term = term * traces[rho_i]
            csum = csum + term
        exponent = (2 * g + r - 1) if spec.orientable else (g + r - 1)
        total = total + csum * (ctx.sizes[host_i] * Fraction(data.order) ** exponent)
    return HomCount(_as_count(total * weight, "quotient count"), "|X/AdG|")


# -- spectral class functions ------------------------------------------------------


def theta_torus_spectral(table: CharacterTable) -> ClassFunction:
    """|G| * sum over pi of chi_pi / dim(pi), as exact class-function values."""
    weights = [Fraction(table.order, d) for d in table.dims]
    return ClassFunction(table.ctx, [
        _as_count(monomial_sum(table.n, weights, [table.column(c)]), "theta_torus value")
        for c in table.ctx.classes
    ])


def theta_square_spectral(table: CharacterTable) -> ClassFunction:
    """sum over pi of fs(pi) * chi_pi."""
    weights = [table.fs_indicator(pi) for pi in table.irreps]
    return ClassFunction(table.ctx, [
        _as_count(monomial_sum(table.n, weights, [table.column(c)]), "theta_square value")
        for c in table.ctx.classes
    ])


def class_indicator_spectral(table: CharacterTable, c: ConjClass) -> ClassFunction:
    """The indicator of a conjugacy class through its character expansion
    (|O|/|G|) sum over pi of chi_pi(gamma^-1) chi_pi."""
    ctx = table.ctx
    F = ctx.field
    rep = ctx.representative(c)
    inv_col = table.column(ctx.classify(mat_inv(F, rep)))
    w = Fraction(ctx.sizes[ctx.class_index[c]], table.order)
    ones = [1] * len(table.irreps)
    values = []
    for d in ctx.classes:
        v = monomial_sum(table.n, ones, [inv_col, table.column(d)]).as_rational()
        assert v is not None and (v * w).denominator == 1
        values.append(int(v * w))
    return ClassFunction(ctx, values)


def convolve_spectral(
    table: CharacterTable, f: ClassFunction, g: ClassFunction
) -> ClassFunction:
    """Counting convolution computed in the Fourier basis, where it is
    diagonal: coefficients multiply with a |G|/dim factor."""
    ctx = table.ctx
    fc = fourier_coefficients(table, f)
    gc = fourier_coefficients(table, g)
    values = []
    for c in ctx.classes:
        acc = CycNumber.zero(table.n)
        for i, pi in enumerate(table.irreps):
            coef = fc[i] * gc[i] * Fraction(table.order, table.dims[i])
            acc = acc + table.value(pi, c) * coef
        values.append(acc)
    return ClassFunction(ctx, values)


def fourier_coefficients(table: CharacterTable, f: ClassFunction) -> list:
    """<f, chi_pi> = (1/|G|) sum over g of f(g) conj(chi_pi(g))."""
    ctx = table.ctx
    out = []
    for pi in table.irreps:
        acc = CycNumber.zero(table.n)
        for ci, c in enumerate(ctx.classes):
            v = f.values[ci]
            if isinstance(v, CycNumber):
                acc = acc + v * table.value(pi, c).conj() * ctx.sizes[ci]
            elif v:
                acc = acc + table.value(pi, c).conj() * (v * ctx.sizes[ci])
        out.append(acc * Fraction(1, table.order))
    return out
