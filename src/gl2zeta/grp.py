"""Conjugacy classes, centralizers and element enumeration for GL(2,F_q)
and PGL(2,F_q).

Matrices are row-major 4-tuples (a, b, c, d) of base-field codes.  PGL
elements are represented by canonical lifts: the scalar multiple whose
first nonzero entry equals 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .ffield import CapExceeded, Field, FieldError, build_extension, build_field, prime_power

GROUP_CAP = 1 << 17

Mat = tuple  # (a, b, c, d)


# -- matrix helpers ---------------------------------------------------------


def mat_mul(F: Field, m: Mat, n: Mat) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return (
        F.add(F.mul(a, e), F.mul(b, g)),
        F.add(F.mul(a, f), F.mul(b, h)),
        F.add(F.mul(c, e), F.mul(d, g)),
        F.add(F.mul(c, f), F.mul(d, h)),
    )


def mat_det(F: Field, m: Mat) -> int:
    a, b, c, d = m
    return F.sub(F.mul(a, d), F.mul(b, c))


def mat_trace(F: Field, m: Mat) -> int:
    return F.add(m[0], m[3])


def mat_inv(F: Field, m: Mat) -> Mat:
    a, b, c, d = m
    det = mat_det(F, m)
    if det == 0:
        raise FieldError("matrix is singular")
    di = F.inv(det)
    return (F.mul(d, di), F.mul(F.neg(b), di), F.mul(F.neg(c), di), F.mul(a, di))


def mat_scale(F: Field, s: int, m: Mat) -> Mat:
    return tuple(F.mul(s, x) for x in m)


# -- classes ---------------------------------------------------------------


@dataclass(frozen=True)
class ConjClass:
    group: str  # "gl" | "pgl"
    kind: str  # gl: central/unipotent/diagonal/elliptic; pgl: identity/unipotent/diagonal/elliptic
    params: tuple


@dataclass(frozen=True)
class Centralizer:
    cls: ConjClass
    structure: str  # "full" | "mirabolic" | "split-torus" | "nonsplit-torus"
    order: int


class ClassFunction:
    """Exact function on conjugacy classes (values indexed by class order)."""

    def __init__(self, ctx, values):
        values = list(values)
        if len(values) != len(ctx.classes):
            raise ValueError("class function must cover every class")
        self.ctx = ctx
        self.values = values

    def __call__(self, c: ConjClass):
        return self.values[self.ctx.class_index[c]]

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.ctx is other.ctx and all(
            a == b for a, b in zip(self.values, other.values)
        )

    def __repr__(self):
        return f"ClassFunction({self.values})"


class GLContext:
    """GL(2, F_q): canonical class list, sizes, representatives, classify."""

    group = "gl"

    def __init__(self, q: int):
        p, e = prime_power(q)
        self.field = build_field(p, e)
        self.ext = build_extension(self.field)
        self.q = q
        self.order = q * (q - 1) ** 2 * (q + 1)
        self._build_classes()
        self._build_classify_tables()

    def _build_classes(self):
        F, E, q = self.field, self.ext, self.q
        classes: list[ConjClass] = []
        sizes: list[int] = []
        reps: list[Mat] = []
        dlogs: list[tuple] = []
        for k in range(q - 1):
            x = F.from_dlog(k)
            classes.append(ConjClass("gl", "central", (x,)))
            sizes.append(1)
            reps.append((x, 0, 0, x))
            dlogs.append((k,))
        for k in range(q - 1):
            x = F.from_dlog(k)
            classes.append(ConjClass("gl", "unipotent", (x,)))
            sizes.append((q - 1) * (q + 1))
            reps.append((x, 1, 0, x))
            dlogs.append((k,))
        for i in range(q - 1):
            for j in range(i + 1, q - 1):
                x, y = F.from_dlog(i), F.from_dlog(j)
                classes.append(ConjClass("gl", "diagonal", (x, y)))
                sizes.append(q * (q + 1))
                reps.append((x, 0, 0, y))
                dlogs.append((i, j))
        for k in range(E.order - 1):
            lam = E.from_dlog(k)
            if E.in_base(lam):
                continue
            if (k * q) % (E.order - 1) < k:  # keep the smaller dlog of {lam, conj}
                continue
            classes.append(ConjClass("gl", "elliptic", (lam,)))
            sizes.append(q * (q - 1))
            reps.append(self.elliptic_rep(lam))
            dlogs.append((k,))
        assert len(classes) == q * q - 1
        assert sum(sizes) == self.order
        self.classes = classes
        self.sizes = sizes
        self.reps = reps
        # discrete logs of the class parameters, in class order: dlog_F of the
        # eigenvalues for central/unipotent/diagonal, dlog_E of lam for elliptic
        self.dlogs = dlogs
        self.class_index = {c: i for i, c in enumerate(classes)}

    def elliptic_rep(self, lam: int) -> Mat:
        """The companion matrix of lam's minimal polynomial over F_q."""
        F, E = self.field, self.ext
        return (0, F.neg(E.norm(lam)), 1, E.trace(lam))

    def _build_classify_tables(self):
        F, E, q = self.field, self.ext, self.q
        elliptic = {}
        for k in range(E.order - 1):
            lam = E.from_dlog(k)
            if E.in_base(lam):
                continue
            key = (E.trace(lam), E.norm(lam))
            if key not in elliptic or (E.dlog(lam) < E.dlog(elliptic[key])):
                elliptic[key] = lam
        self._elliptic_by_td = elliptic
        split = {}
        for i in range(q - 1):
            for j in range(q - 1):
                x, y = F.from_dlog(i), F.from_dlog(j)
                key = (F.add(x, y), F.mul(x, y))
                split[key] = (x, y) if i <= j else (y, x)
        self._split_by_td = split

    # -- operations ------------------------------------------------------

    def representative(self, c: ConjClass) -> Mat:
        return self.reps[self.class_index[c]]

    def classify(self, m: Mat) -> ConjClass:
        F = self.field
        a, b, c, d = m
        det = mat_det(F, m)
        if det == 0:
            raise FieldError("matrix is singular")
        if b == 0 and c == 0 and a == d:
            return ConjClass("gl", "central", (a,))
        tr = mat_trace(F, m)
        lam = self._elliptic_by_td.get((tr, det))
        if lam is not None:
            return ConjClass("gl", "elliptic", (lam,))
        x, y = self._split_by_td[(tr, det)]
        if x == y:
            return ConjClass("gl", "unipotent", (x,))
        return ConjClass("gl", "diagonal", (x, y))

    def centralizer(self, c: ConjClass) -> Centralizer:
        q = self.q
        if c.kind == "central":
            return Centralizer(c, "full", self.order)
        if c.kind == "unipotent":
            return Centralizer(c, "mirabolic", q * (q - 1))
        if c.kind == "diagonal":
            return Centralizer(c, "split-torus", (q - 1) ** 2)
        if c.kind == "elliptic":
            return Centralizer(c, "nonsplit-torus", q * q - 1)
        raise ValueError(f"not a GL class: {c}")

    def enumerate_group(self):
        """Invertible matrices in a fixed order (raw-code lexicographic)."""
        if self.order > GROUP_CAP:
            raise CapExceeded(f"|GL(2,F_{self.q})| = {self.order} exceeds cap {GROUP_CAP}")
        F, q = self.field, self.q
        for m in product(range(q), repeat=4):
            if mat_det(F, m) != 0:
                yield m

    def class_label(self, c: ConjClass) -> str:
        F, E = self.field, self.ext
        if c.kind == "central":
            return f"c1:{F.dlog(c.params[0])}"
        if c.kind == "unipotent":
            return f"c2:{F.dlog(c.params[0])}"
        if c.kind == "diagonal":
            return f"c3:{F.dlog(c.params[0])},{F.dlog(c.params[1])}"
        return f"c4:{E.dlog(c.params[0])}"


class PGLContext:
    """PGL(2, F_q) built on canonical GL lifts."""

    group = "pgl"

    def __init__(self, q: int):
        self.gl = GLContext(q)
        self.field = self.gl.field
        self.ext = self.gl.ext
        self.q = q
        self.order = q * (q - 1) * (q + 1)
        self._build_classes()

    def _build_classes(self):
        F, E, q = self.field, self.ext, self.q
        classes = [ConjClass("pgl", "identity", ()), ConjClass("pgl", "unipotent", ())]
        sizes = [1, q * q - 1]
        reps = [(1, 0, 0, 1), (1, 1, 0, 1)]
        dlogs = [(0,), (0,)]  # GL coordinates of the lifts I, [[1,1],[0,1]], diag(z, 1), lam
        # split classes: diag(z, 1), z != 1, z ~ z^-1
        seen = set()
        for k in range(1, q - 1):
            if k in seen:
                continue
            seen.update({k, (-k) % (q - 1)})
            z = F.from_dlog(k)
            classes.append(ConjClass("pgl", "diagonal", (z,)))
            size = q * (q + 1)
            if (2 * k) % (q - 1) == 0:  # z = z^-1 (only z = -1, q odd)
                size //= 2
            sizes.append(size)
            reps.append((z, 0, 0, 1))
            dlogs.append((k, 0))
        # elliptic classes
        for lam in self._elliptic_params():
            classes.append(ConjClass("pgl", "elliptic", (lam,)))
            if q % 2 == 0:
                sizes.append(q * (q - 1))
            elif E.trace(lam) == 0:
                sizes.append(q * (q - 1) // 2)
            else:
                sizes.append(q * (q - 1))
            reps.append(self.gl.elliptic_rep(lam))
            dlogs.append((E.dlog(lam),))
        assert sum(sizes) == self.order, (sizes, self.order)
        expected = q + 2 if q % 2 else q + 1
        assert len(classes) == expected
        self.classes = classes
        self.sizes = sizes
        self.reps = [self.normalize(m) for m in reps]
        self.dlogs = dlogs
        self.class_index = {c: i for i, c in enumerate(classes)}

    def _elliptic_params(self) -> list[int]:
        """Canonical elliptic parameters, in ascending extension dlog."""
        E, q = self.ext, self.q
        params = set()
        for k in range(E.order - 1):
            lam = E.from_dlog(k)
            if not E.in_base(lam):
                params.add(self._canonical_elliptic(lam))
        return sorted(params, key=E.dlog)

    def _canonical_elliptic(self, lam: int) -> int:
        """Canonical orbit datum for the image of c4(lam) in PGL."""
        F, E, q = self.field, self.ext, self.q
        if q % 2 == 0:
            # scale to norm 1 (x -> x^2 is bijective), then fold lam ~ lam^-1
            s = F.inv(F.sqrt(E.norm(lam)))
            mu = E.mul(E.embed(s), lam)
            cands = (mu, E.inv(mu))
        else:
            if E.trace(lam) == 0:
                # one orbit: all trace-zero elements; canonical scalar multiple
                cands = tuple(
                    E.mul(E.embed(s), lam) for s in range(1, q)
                )
            else:
                # scale to trace 2, then fold 1 + y*delta ~ 1 - y*delta
                s = F.mul(F.add(1, 1), F.inv(E.trace(lam)))
                mu = E.mul(E.embed(s), lam)
                cands = (mu, E.frobenius(mu))
        return min(cands, key=E.dlog)

    # -- operations ------------------------------------------------------

    def normalize(self, m: Mat) -> Mat:
        """Canonical lift: first nonzero entry scaled to 1."""
        F = self.field
        for entry in m:
            if entry:
                return mat_scale(F, F.inv(entry), m)
        raise FieldError("zero matrix")

    def project(self, c: ConjClass) -> ConjClass:
        """Image in PGL of a GL conjugacy class."""
        if c.group != "gl":
            raise ValueError("project expects a GL class")
        F, E, q = self.field, self.ext, self.q
        if c.kind == "central":
            return ConjClass("pgl", "identity", ())
        if c.kind == "unipotent":
            return ConjClass("pgl", "unipotent", ())
        if c.kind == "diagonal":
            x, y = c.params
            z = F.mul(x, F.inv(y))
            k = F.dlog(z)
            k = min(k, (-k) % (q - 1))
            return ConjClass("pgl", "diagonal", (F.from_dlog(k),))
        return ConjClass("pgl", "elliptic", (self._canonical_elliptic(c.params[0]),))

    def classify(self, m: Mat) -> ConjClass:
        return self.project(self.gl.classify(m))

    def representative(self, c: ConjClass) -> Mat:
        return self.reps[self.class_index[c]]

    def enumerate_group(self):
        """Canonical lifts in GL enumeration order."""
        if self.order > GROUP_CAP:
            raise CapExceeded(f"|PGL(2,F_{self.q})| = {self.order} exceeds cap {GROUP_CAP}")
        for m in self.gl.enumerate_group():
            first = next(x for x in m if x)
            if first == 1:
                yield m

    def class_label(self, c: ConjClass) -> str:
        F, E = self.field, self.ext
        if c.kind == "identity":
            return "c1:0"
        if c.kind == "unipotent":
            return "c2:0"
        if c.kind == "diagonal":
            return f"c3:{F.dlog(c.params[0])}"
        return f"c4:{E.dlog(c.params[0])}"
