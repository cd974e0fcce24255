"""Lie-algebra models with invariant almost Hermitian structures.

A model is the exact ground truth every identity is checked against:
structure constants (convention [e_i, e_j] = c^k_{ij} e_k, so the invariant
differential acts by du^k = -1/2 c^k_{ij} u^i ^ u^j), a positive-definite
metric, and an orthogonal almost complex structure stored as its action on
the coframe.  Validation re-derives every structural invariant exactly:
Jacobi, unimodularity, J^2 = -Id, compatibility, positive-definiteness.

The built-in library contains a flat torus, the bi-invariant-ansatz nearly
Kahler structure on two su(2) factors (solved exactly over Q(sqrt 3) and
frozen here as golden data; the validator re-checks it from scratch), their
twelve-dimensional product, and a four-dimensional nilmanifold that serves
as the deliberate negative control.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .exterior import Form, GramData
from .linalg import SparseRow, add_scaled, inverse
from .operators import GradedOperator, algebra_map_apply, bracket_sum, derivation_from_one_forms
from .scalars import MINUS_ONE, ONE, ZERO, Scalar, rational, squarefree

Structure = dict[tuple[int, int], dict[int, Scalar]]
Matrix = list[list[Scalar]]


@dataclass
class ValidationIssue:
    check: str
    witness: tuple


@dataclass
class ValidationReport:
    model: str
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        if self.ok:
            return f"{self.model}: all model invariants hold"
        lines = [f"{self.model}: {len(self.issues)} invariant failure(s)"]
        for issue in self.issues:
            lines.append(f"  {issue.check} fails at {issue.witness}")
        return "\n".join(lines)


@dataclass
class ResidualReport:
    nearly_kahler: bool
    strict: bool
    kahler: bool
    mu_zero: bool
    residual_approx: float
    witness: tuple | None


@dataclass
class SU3Data:
    """Scaled SU(3) data of a strict nearly Kahler six-manifold model.

    ``theta_s`` is mu(omega), a (3,0)-form equal to (3 lambda / 2) times the
    unit-norm complex volume form; ``lambda_sq`` is lambda^2 in that unit
    normalization, i.e. lambda^2 = (4/9) |mu omega|^2.  Storing the scaled
    pair keeps all arithmetic inside the fixed quadratic tower (the unit
    form itself would need an extra square root).
    """

    lambda_sq: Scalar
    theta_s: Form
    omega: Form


def _nonzero_rows(matrix) -> list[dict[int, Scalar]]:
    """Each row of a matrix as a sparse row, zeros left out."""
    return [{c: v for c, v in enumerate(row) if not v.is_zero()} for row in matrix]


class ConnectionTable:
    """Levi-Civita coefficients gamma[i][j][k] = Gamma^k_{ij} on the
    invariant frame, exactly verified.

    By the Koszul formula, 2 g(nabla_{e_i} e_j, e_k) = P(i,j,k) - P(j,k,i)
    + P(k,i,j) with P(a,b,c) = g([e_a, e_b], e_c), and Gamma^k_{ij} is
    g^{kl} times it, halved.  Only nonzero terms are summed: P from the
    nonzero structure constants and the nonzero entries of g, each nonzero
    P(a,b,c) added to the six right-hand sides it enters, and those raised
    by the nonzero entries of g^{-1}, so on a diagonal metric the cost
    follows the structure constants, not n^4.  The verification is
    exhaustive: every (i, j, k) in turn is tested for metric compatibility,
    Gamma_{ijk} + Gamma_{ikj} = 0 with Gamma_{ijk} = Gamma^l_{ij} g_{lk},
    and then for torsion, Gamma^k_{ij} - Gamma^k_{ji} = c^k_{ij}; the
    first failing triple raises, and only zero terms are left out of the
    sums (the tests compare every table with the dense formula)."""

    def __init__(self, model: LieAlgebraModel):
        n = model.dim
        g_rows = _nonzero_rows(model.metric)
        ginv_cols = _nonzero_rows(zip(*model.gram().g_inv))
        rhs: dict[tuple[int, int], SparseRow] = {}
        for (a, b), vals in model.structure.items():
            lowered: SparseRow = {}
            for l, c in vals.items():
                add_scaled(lowered, g_rows[l], c)
            for c, v in lowered.items():
                # P(a,b,c) = v = -P(b,a,c), in each of the three Koszul terms
                w = -v
                for i, j, k, s in ((a, b, c, v), (b, a, c, w), (c, a, b, w), (c, b, a, v), (b, c, a, v), (a, c, b, w)):
                    add_scaled(rhs.setdefault((i, j), {}), {k: s})
        half = rational(1, 2)
        gamma = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (i, j), row in rhs.items():
            raised: SparseRow = {}
            for l, v in row.items():
                add_scaled(raised, ginv_cols[l], v)
            for k, v in raised.items():
                gamma[i][j][k] = v * half
        self.gamma = gamma
        self.dim = n
        self._verify(model)

    def _verify(self, model: LieAlgebraModel) -> None:
        n = self.dim
        g_rows = _nonzero_rows(model.metric)
        rows = [_nonzero_rows(block) for block in self.gamma]
        # lowered[i][j][k] = Gamma_{ijk}
        lowered = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for l, v in rows[i][j].items():
                    add_scaled(lowered[i][j], g_rows[l], v)
        for i in range(n):
            for j in range(n):
                low = lowered[i][j]
                # Gamma^k_{ij} - Gamma^k_{ji} - c^k_{ij}, zeros dropped
                torsion = add_scaled(dict(rows[i][j]), rows[j][i], MINUS_ONE)
                add_scaled(torsion, dict(model.bracket_basis(i, j)), MINUS_ONE)
                for k in range(n):
                    compat = low.get(k, ZERO) + lowered[i][k].get(j, ZERO)
                    if not compat.is_zero():
                        raise ValueError(f"connection not metric ({i + 1},{j + 1},{k + 1})")
                    if k in torsion:
                        raise ValueError(f"connection has torsion ({i + 1},{j + 1},{k + 1})")


class LieAlgebraModel:
    """Immutable model data plus memoized derived structure."""

    def __init__(
        self,
        name: str,
        dim: int,
        ext_d: int,
        structure: Structure,
        metric: Matrix,
        complex_structure: Matrix,
        expected: dict | None = None,
        expected_failures: tuple[str, ...] = (),
    ):
        if dim % 2:
            raise ValueError("model dimension must be even")
        self.name = name
        self.dim = dim
        self.ext_d = ext_d
        self.structure = {
            key: {k: v for k, v in vals.items() if not v.is_zero()}
            for key, vals in structure.items()
        }
        self.structure = {key: vals for key, vals in self.structure.items() if vals}
        self.metric = metric
        self.J = complex_structure
        self.expected = expected or {}
        self.expected_failures = tuple(expected_failures)
        self._cache: dict = {}
        # v^i in the u-coframe when this is an orthogonalized presentation
        self._native_coframe: list[Form] | None = None

    # -- raw structure access ------------------------------------------------

    def cval(self, i: int, j: int, k: int) -> Scalar:
        if i == j:
            return ZERO
        if i < j:
            return self.structure.get((i, j), {}).get(k, ZERO)
        return -self.structure.get((j, i), {}).get(k, ZERO)

    def bracket_basis(self, i: int, j: int):
        """[(k, c^k_{ij})] with zero entries omitted."""
        if i == j:
            return []
        if i < j:
            return list(self.structure.get((i, j), {}).items())
        return [(k, -v) for k, v in self.structure.get((j, i), {}).items()]

    def bracket(self, v: list[Scalar], w: list[Scalar]) -> list[Scalar]:
        out = [ZERO] * self.dim
        for (i, j), vals in self.structure.items():
            coeff = v[i] * w[j] - v[j] * w[i]
            if coeff.is_zero():
                continue
            for k, c in vals.items():
                out[k] = out[k] + coeff * c
        return out

    def j_vector(self, v: list[Scalar]) -> list[Scalar]:
        return [
            sum((self.J[a][i] * v[i] for i in range(self.dim) if not v[i].is_zero()), start=ZERO)
            for a in range(self.dim)
        ]

    def j_one_form_rows(self) -> list[Form]:
        """J u^a as forms (coframe action, row a of the stored matrix)."""
        return [Form.one_form(self.dim, self.J[a]) for a in range(self.dim)]

    # -- memoized derived data -------------------------------------------------

    def _memo(self, key: str, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def gram(self) -> GramData:
        return self._memo("gram", lambda: GramData(self.metric))

    def d(self) -> GradedOperator:
        def build():
            images = []
            for k in range(self.dim):
                coeffs = {}
                for (i, j), vals in self.structure.items():
                    v = vals.get(k)
                    if v is not None:
                        coeffs[(1 << i) | (1 << j)] = -v
                images.append(Form(self.dim, coeffs))
            return derivation_from_one_forms(self.dim, images)

        return self._memo("d", build)

    def connection(self) -> ConnectionTable:
        return self._memo("connection", lambda: ConnectionTable(self))

    def nabla_images(self, i: int) -> list[Form]:
        """nabla_i u^k = -Gamma^k_{ij} u^j for each k."""
        gamma = self.connection().gamma
        return [
            Form.one_form(self.dim, [-gamma[i][j][k] for j in range(self.dim)])
            for k in range(self.dim)
        ]

    def nabla_action(self, i: int) -> GradedOperator:
        """nabla_i, the derivation with the coframe values nabla_i u^k."""
        return self._memo(f"nabla_action{i}", lambda: derivation_from_one_forms(self.dim, self.nabla_images(i), 0))

    def omega(self) -> Form:
        def build():
            n = self.dim
            coeffs = {}
            for i in range(n):
                for j in range(i + 1, n):
                    acc = ZERO
                    for a in range(n):
                        acc = acc + self.J[a][i] * self.metric[a][j]
                    if not acc.is_zero():
                        coeffs[(1 << i) | (1 << j)] = acc
            return Form(n, coeffs)

        return self._memo("omega", build)

    def nijenhuis_tensor(self) -> list[list[list[Scalar]]]:
        def build():
            n = self.dim
            basis = [[ONE if t == s else ZERO for t in range(n)] for s in range(n)]
            tensor = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    x, y = basis[i], basis[j]
                    jx, jy = self.j_vector(x), self.j_vector(y)
                    term = self.bracket(x, y)
                    term2 = self.j_vector(self.bracket(jx, y))
                    term3 = self.j_vector(self.bracket(x, jy))
                    term4 = self.bracket(jx, jy)
                    for k in range(n):
                        v = term[k] + term2[k] + term3[k] - term4[k]
                        tensor[i][j][k] = v
                        tensor[j][i][k] = -v
            return tensor

        return self._memo("nijenhuis_tensor", build)

    def nijenhuis_op(self) -> GradedOperator:
        def build():
            n = self.dim
            tensor = self.nijenhuis_tensor()
            images = []
            for k in range(n):
                coeffs = {}
                for i in range(n):
                    for j in range(i + 1, n):
                        v = tensor[i][j][k]
                        if not v.is_zero():
                            coeffs[(1 << i) | (1 << j)] = v
                images.append(Form(n, coeffs))
            return derivation_from_one_forms(n, images)

        return self._memo("nijenhuis_op", build)

    def nabla_omega(self, i: int) -> Form:
        return self._memo(f"nabla_omega{i}", lambda: self.nabla_action(i).apply(self.omega()))

    def metric_is_diagonal(self) -> bool:
        return all(
            self.metric[i][j].is_zero()
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        )

    def orthogonalized(self) -> LieAlgebraModel:
        """Same geometry in an exactly orthogonalized coframe (diagonal metric).

        Every computation runs on this presentation; a model whose metric is
        already diagonal is its own.  With g = M diag(D) M^T from LDL^T, the
        new coframe is v^i = sum_j T[i][j] u^j for T = M^T, whose metric is
        diag(D).  ``to_native`` maps its forms back to the u-coframe through
        the algebra map v^i -> T[i], kept on the presentation.  The choice is
        memoized (None for a diagonal metric, so the memo holds no cycle), and
        the metric is scanned once.
        """

        def build():
            if self.metric_is_diagonal():
                return None
            n = self.dim
            m, dvals = self.gram().ldl()
            t = [[m[j][i] for j in range(n)] for i in range(n)]
            tinv = inverse(t)
            u_in_v = [Form.one_form(n, row) for row in tinv]
            d_v = [self.d().apply(Form.one_form(n, row)) for row in t]
            structure: Structure = {}
            for a, dv in enumerate(algebra_map_apply(u_in_v, d_v)):
                # dv^a = -sum_{i<j} c^a_ij v^i ^ v^j
                for mask, coeff in dv.coeffs.items():
                    i = (mask & -mask).bit_length() - 1
                    j = mask.bit_length() - 1
                    structure.setdefault((i, j), {})[a] = -coeff
            g_v = [[dvals[i] if i == j else ZERO for j in range(n)] for i in range(n)]
            jt = _mat_mul(_mat_mul(t, self.J), tinv)
            out = LieAlgebraModel(
                self.name + "#ortho",
                n,
                self.ext_d,
                structure,
                g_v,
                jt,
                dict(self.expected),
                self.expected_failures,
            )
            out._native_coframe = [Form.one_form(n, row) for row in t]
            report = validate_model(out)
            if not report.ok:
                raise AssertionError("orthogonalized presentation failed validation:\n" + report.summary())
            return out

        comp = self._memo("ortho", build)
        return self if comp is None else comp

    def to_native(self, form: Form) -> Form:
        """A form of ``orthogonalized()`` in this model's own coframe."""
        comp = self.orthogonalized()
        if comp is self:
            return form
        return algebra_map_apply(comp._native_coframe, [form])[0]

    def __repr__(self) -> str:
        return f"LieAlgebraModel({self.name!r}, dim={self.dim})"


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), start=ZERO) for j in range(n)]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# validation

def validate_model(model: LieAlgebraModel) -> ValidationReport:
    """Every invariant of the model, exactly: real, Jacobi and unimodular
    structure constants, J^2 = -1 compatible with a positive-definite
    metric, and then d^2 = 0 as a matrix identity.  d d = (1/2)[[d, d]] is
    a derivation, so by Koszul's rule it is decided on its columns of
    degree <= 1 (``operators.bracket_sum``), witness included."""
    report = ValidationReport(model.name)
    n = model.dim
    g = model.metric
    j = model.J

    # structure constants: real entries, Jacobi, unimodularity
    for (i, jj), vals in model.structure.items():
        for k, v in vals.items():
            if not v.is_real():
                report.issues.append(ValidationIssue("real_structure", (i + 1, jj + 1, k + 1)))
    # Jacobi: [[x, y], z] + [[y, z], x] + [[z, x], y] = 0 on basis triples,
    # summed over the nonzero structure constants only
    brackets = [[dict(model.bracket_basis(x, y)) for y in range(n)] for x in range(n)]
    for i in range(n):
        for jj in range(i + 1, n):
            for k in range(jj + 1, n):
                acc: dict[int, Scalar] = {}
                for x, y, z in ((i, jj, k), (jj, k, i), (k, i, jj)):
                    for m, c in brackets[x][y].items():
                        add_scaled(acc, brackets[m][z], c)
                for l in sorted(acc):
                    report.issues.append(ValidationIssue("jacobi", (i + 1, jj + 1, k + 1, l + 1)))
    for jj in range(n):
        acc = ZERO
        for i in range(n):
            acc = acc + model.cval(i, jj, i)
        if not acc.is_zero():
            report.issues.append(ValidationIssue("unimodular", (jj + 1,)))

    # J^2 = -Id and compatibility g(J., J.) = g
    j2 = _mat_mul(j, j)
    for a in range(n):
        for b in range(n):
            want = MINUS_ONE if a == b else ZERO
            if j2[a][b] != want:
                report.issues.append(ValidationIssue("j_squared", (a + 1, b + 1)))
    jt = [[j[b][a] for b in range(n)] for a in range(n)]
    jgj = _mat_mul(_mat_mul(jt, g), j)
    for a in range(n):
        for b in range(n):
            if jgj[a][b] != g[a][b]:
                report.issues.append(ValidationIssue("j_metric_compatible", (a + 1, b + 1)))

    # metric symmetric positive definite (GramData construction re-checks)
    try:
        model.gram()
    except ValueError as exc:
        report.issues.append(ValidationIssue("metric_positive_definite", (str(exc),)))

    # d^2 = 0 (equivalent to Jacobi), by order
    if not report.issues:
        d = model.d()
        dd = bracket_sum([], squares=[d])
        if not dd.is_zero():
            report.issues.append(ValidationIssue("d_squared", (dd.first_witness(),)))
    return report


# ---------------------------------------------------------------------------
# nearly Kahler structure

def _two_form_entry(f: Form, a: int, b: int) -> Scalar:
    """f(e_a, e_b) for a 2-form f and 0-based frame indices."""
    if a == b:
        return ZERO
    v = f.coeffs.get((1 << a) | (1 << b), ZERO)
    return v if a < b else -v


def nabla_omega_symmetrization(nabla_om: list[Form]):
    """Yield ((i, j, k) 1-based, (nabla_i omega)(e_j, e_k) + (nabla_j omega)(e_i, e_k))."""
    n = len(nabla_om)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = _two_form_entry(nabla_om[i], j, k) + _two_form_entry(nabla_om[j], i, k)
                yield (i + 1, j + 1, k + 1), r


def nearly_kahler_residual(model: LieAlgebraModel) -> ResidualReport:
    nabla_om = [model.nabla_omega(i) for i in range(model.dim)]
    witness = None
    worst = 0.0
    for ijk, r in nabla_omega_symmetrization(nabla_om):
        if not r.is_zero():
            size = abs(r.approx())
            if witness is None or size > worst:
                witness, worst = ijk, size
    nk = witness is None
    d_omega = model.d().apply(model.omega())
    strict = nk and not d_omega.is_zero()
    from .bidegree import differential_split

    mu_zero = differential_split(model).mu.is_zero()
    kahler = nk and mu_zero
    return ResidualReport(nk, strict, kahler, mu_zero, worst, witness)


def nk_report(model: LieAlgebraModel) -> ResidualReport:
    """The nearly Kahler residual of the computation presentation, computed once.

    Its flags do not depend on the coframe; its witness is reported in the
    orthogonalized one.
    """
    comp = model.orthogonalized()
    return comp._memo("nk_report", lambda: nearly_kahler_residual(comp))


def su3_extract(model: LieAlgebraModel) -> SU3Data:
    """SU(3) data, computed in the orthogonalized presentation; ``theta_s``
    and ``omega`` are mapped back to the model's own coframe."""
    from .bidegree import decompose_form, differential_split

    if model.dim != 6:
        raise ValueError("SU(3) data requires a six-dimensional model")
    comp = model.orthogonalized()
    split = differential_split(comp)
    omega = comp.omega()
    theta_s = split.mu.apply(omega)
    if theta_s.is_zero():
        raise ValueError("not strict nearly Kahler: mu(omega) = 0")
    parts = decompose_form(comp, theta_s)
    if set(parts) != {(3, 0)}:
        raise ValueError("mu(omega) is not of pure type (3,0)")
    im_theta = (theta_s - theta_s.conjugate()).scale(Scalar(0, 0, -1, 0, 2))
    lhs = comp.d().apply(im_theta)
    omega_sq = omega.wedge(omega)
    mask, ref = next(iter(sorted(omega_sq.coeffs.items())))
    ratio = lhs.coeffs.get(mask, ZERO) / ref
    if lhs != omega_sq.scale(ratio):
        raise ValueError("structure equation inconsistent: d Im(mu omega) not proportional to omega^2")
    # d Im(mu omega) = -(3/8) lambda^2 omega^2 in the normalization where
    # mu omega = (3 lambda / 2) times a *unit* (3,0)-form; equivalently
    # lambda^2 = (4/9) |mu omega|^2, which every block-scalar formula uses.
    lam_sq = ratio * rational(-8, 3)
    if not lam_sq.is_real() or lam_sq.sign() <= 0:
        raise ValueError("structure equation inconsistent: lambda^2 not positive")
    if lam_sq * rational(9, 4) != comp.gram().inner(theta_s, theta_s):
        raise ValueError("structure equation inconsistent: lambda^2 does not match |mu omega|^2")
    return SU3Data(lam_sq, model.to_native(theta_s), model.to_native(omega))


# ---------------------------------------------------------------------------
# products and builtins

def product_model(m1: LieAlgebraModel, m2: LieAlgebraModel, name: str | None = None) -> LieAlgebraModel:
    if m1.ext_d != 1 and m2.ext_d != 1 and m1.ext_d != m2.ext_d:
        raise ValueError("incompatible extension parameters")
    ext_d = m1.ext_d if m1.ext_d != 1 else m2.ext_d
    n1, n2 = m1.dim, m2.dim
    n = n1 + n2
    structure: Structure = {key: dict(vals) for key, vals in m1.structure.items()}
    for (i, j), vals in m2.structure.items():
        structure[(i + n1, j + n1)] = {k + n1: v for k, v in vals.items()}
    g = [[ZERO] * n for _ in range(n)]
    jmat = [[ZERO] * n for _ in range(n)]
    for a in range(n1):
        for b in range(n1):
            g[a][b] = m1.metric[a][b]
            jmat[a][b] = m1.J[a][b]
    for a in range(n2):
        for b in range(n2):
            g[a + n1][b + n1] = m2.metric[a][b]
            jmat[a + n1][b + n1] = m2.J[a][b]
    e1, e2 = m1.expected, m2.expected
    expected = {}
    if e1 and e2:
        expected = {
            "nearly_kahler": e1.get("nearly_kahler", False) and e2.get("nearly_kahler", False),
            "kahler": e1.get("kahler", False) and e2.get("kahler", False),
        }
        expected["strict"] = expected["nearly_kahler"] and (
            e1.get("strict", False) or e2.get("strict", False)
        )
    return LieAlgebraModel(
        name or f"{m1.name}x{m2.name}", n, ext_d, structure, g, jmat, expected
    )


def _su2_structure(offset: int, structure: Structure) -> None:
    cyc = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    for i, j, k in cyc:
        a, b = sorted((i + offset, j + offset))
        sign = ONE if (i + offset, j + offset) == (a, b) else MINUS_ONE
        structure.setdefault((a, b), {})[k + offset] = sign


def _standard_j(dim: int) -> Matrix:
    j = [[ZERO] * dim for _ in range(dim)]
    for k in range(dim // 2):
        # frame action J e_{2k+1} = e_{2k+2}; same matrix acts on the coframe rows
        j[2 * k][2 * k + 1] = MINUS_ONE
        j[2 * k + 1][2 * k] = ONE
    return j


def _identity_metric(dim: int) -> Matrix:
    return [[ONE if a == b else ZERO for b in range(dim)] for a in range(dim)]


_BUILTIN_CACHE: dict[str, LieAlgebraModel] = {}

# nearly-Kahler-only checks that fail on the negative control, measured
# exactly and frozen.  BR67 and AUX_COM are absent: they hold vacuously on
# this model because mu(omega) = mubar(omega) = 0 kills every bracket with
# L_{mu omega}, even though the model is not nearly Kahler.
KODAIRA_EXPECTED_FAILURES: tuple[str, ...] = (
    "DC_FRAME",
    "DELTA_SUM",
    "HODGE_ABCD",
    "LAP_COM",
    "LEM_NK",
    "L_DELTA",
    "NK_COR",
    "NK_DEF",
    "NK_MAIN",
    "PROP_LAP",
    "TORSION_OP",
)

BUILTIN_NAMES = ("torus6", "s3xs3-nk", "su2-four", "kodaira-thurston")


def builtin_model(name: str) -> LieAlgebraModel:
    if name in _BUILTIN_CACHE:
        return _BUILTIN_CACHE[name]
    if name == "torus6":
        model = LieAlgebraModel(
            "torus6",
            6,
            1,
            {},
            _identity_metric(6),
            _standard_j(6),
            {"nearly_kahler": True, "strict": False, "kahler": True},
        )
    elif name == "kodaira-thurston":
        structure: Structure = {(0, 1): {3: MINUS_ONE}}  # d e^4 = e^1 ^ e^2
        model = LieAlgebraModel(
            "kodaira-thurston",
            4,
            1,
            structure,
            _identity_metric(4),
            _standard_j(4),
            {"nearly_kahler": False, "strict": False, "kahler": False},
            KODAIRA_EXPECTED_FAILURES,
        )
    elif name == "s3xs3-nk":
        structure = {}
        _su2_structure(0, structure)
        _su2_structure(3, structure)
        # golden ansatz solution over Q(sqrt 3):
        #   g(e,e) = g(f,f) = 1, g(e_i, f_i) = -1/2,
        #   J e_i = (w/3) e_i + (2w/3) f_i,  J f_i = -(2w/3) e_i - (w/3) f_i
        a = ONE
        b = Scalar(-1, 0, 0, 0, 2)
        p = Scalar(0, 1, 0, 0, 3, 3)
        q = Scalar(0, 2, 0, 0, 3, 3)
        g = [[ZERO] * 6 for _ in range(6)]
        jmat = [[ZERO] * 6 for _ in range(6)]
        for i in range(3):
            e, f = i, i + 3
            g[e][e] = a
            g[f][f] = a
            g[e][f] = b
            g[f][e] = b
            jmat[e][e] = p
            jmat[f][e] = q
            jmat[e][f] = -q
            jmat[f][f] = -p
        model = LieAlgebraModel(
            "s3xs3-nk",
            6,
            3,
            structure,
            g,
            jmat,
            {"nearly_kahler": True, "strict": True, "kahler": False},
        )
    elif name == "su2-four":
        base = builtin_model("s3xs3-nk")
        model = product_model(base, base, name="su2-four")
    else:
        raise ValueError(f"unknown builtin model {name!r}")
    report = validate_model(model)
    if not report.ok:  # pragma: no cover - builtin data is fixed
        raise AssertionError(report.summary())
    _BUILTIN_CACHE[name] = model
    return model


# ---------------------------------------------------------------------------
# model files

# Operators on a model of dimension n have 2^n columns: dimension 12 is the
# largest built-in and 14 the next one to try, so a file asking for more is
# refused before any matrix is read.
MAX_DIMENSION = 14
# The squarefree test of extension_d is trial division up to its square root.
MAX_EXTENSION_D = 10**9

_FILE_KEYS = (
    "name",
    "dimension",
    "extension_d",
    "structure_constants",
    "metric",
    "complex_structure",
    "expected",
)


def model_to_json(model: LieAlgebraModel) -> str:
    entries = []
    for (i, j) in sorted(model.structure):
        for k in sorted(model.structure[(i, j)]):
            entries.append(
                {
                    "i": i + 1,
                    "j": j + 1,
                    "k": k + 1,
                    "value": model.structure[(i, j)][k].literal(),
                }
            )
    doc = {
        "name": model.name,
        "dimension": model.dim,
        "extension_d": model.ext_d,
        "structure_constants": entries,
        "metric": [[v.literal() for v in row] for row in model.metric],
        "complex_structure": [[v.literal() for v in row] for row in model.J],
        "expected": {
            "nearly_kahler": bool(model.expected.get("nearly_kahler", False)),
            "strict": bool(model.expected.get("strict", False)),
            "kahler": bool(model.expected.get("kahler", False)),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _file_int(value, what: str) -> int:
    # bool is a subclass of int in Python; a flag is no index
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _file_matrix(value, dim: int, what: str, scal) -> Matrix:
    if not isinstance(value, list) or len(value) != dim or any(
        not isinstance(row, list) or len(row) != dim for row in value
    ):
        raise ValueError(f"{what} must be a dimension x dimension matrix")
    return [[scal(v, what) for v in row] for row in value]


def model_from_json(text: str) -> LieAlgebraModel:
    """Parse a model file; every malformed input raises ValueError."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("model file must contain a JSON object")
    unknown = set(doc) - set(_FILE_KEYS)
    if unknown:
        raise ValueError(f"unknown model file keys: {sorted(unknown)}")
    missing = set(_FILE_KEYS) - set(doc)
    if missing:
        raise ValueError(f"missing model file keys: {sorted(missing)}")
    if not isinstance(doc["name"], str):
        raise ValueError("name must be a string")
    dim = _file_int(doc["dimension"], "dimension")
    ext_d = _file_int(doc["extension_d"], "extension_d")
    if dim <= 0:
        raise ValueError("dimension must be a positive integer")
    if dim > MAX_DIMENSION:
        raise ValueError(f"dimension {dim} exceeds the supported maximum {MAX_DIMENSION}")
    if ext_d < 1:
        raise ValueError("extension_d must be a positive integer")
    if ext_d > MAX_EXTENSION_D:
        raise ValueError(f"extension_d = {ext_d} exceeds the supported maximum {MAX_EXTENSION_D}")
    if not squarefree(ext_d):
        raise ValueError(f"extension_d = {ext_d} is not squarefree")

    def scal(value, what: str) -> Scalar:
        if not isinstance(value, str):
            raise ValueError(f"{what} entries must be scalar literal strings, got {value!r}")
        return Scalar.parse(value, ext_d)

    records = doc["structure_constants"]
    if not isinstance(records, list):
        raise ValueError("structure_constants must be a list of records")
    structure: Structure = {}
    for entry in records:
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "k", "value"}:
            raise ValueError(f"bad structure constant record {entry}")
        i, j, k = (_file_int(entry[key], f"structure constant index {key}") - 1 for key in "ijk")
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim) or i >= j:
            raise ValueError(f"bad structure constant indices {entry}")
        slot = structure.setdefault((i, j), {})
        if k in slot:
            raise ValueError(f"duplicate structure constant record {entry}")
        slot[k] = scal(entry["value"], "structure constant value")
    metric = _file_matrix(doc["metric"], dim, "metric", scal)
    jmat = _file_matrix(doc["complex_structure"], dim, "complex_structure", scal)
    expected = doc["expected"]
    if (
        not isinstance(expected, dict)
        or set(expected) != {"nearly_kahler", "strict", "kahler"}
        or not all(isinstance(v, bool) for v in expected.values())
    ):
        raise ValueError("expected must have exactly the three boolean flags")
    return LieAlgebraModel(doc["name"], dim, ext_d, structure, metric, jmat, dict(expected))


def model_hash(model: LieAlgebraModel) -> str:
    return hashlib.sha256(model_to_json(model).encode()).hexdigest()
