"""The three workloads: seeded inputs, the calls that are timed, the checks.

Each workload is a fixed list of operations built from the seed.  An
operation is one call into teneig; its check compares the output with
`checks`, which never calls teneig, and returns None or the reason the
output is wrong.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from teneig import Tensor, cli, spectra

import checks

WORKLOADS = ("generic", "singular", "commands")

# shape -> solves per pass; (4,4) and (3,5) carry most of the time
GENERIC_MIX = (((3, 3), 12), ((4, 3), 8), ((3, 5), 6), ((4, 4), 6))

# sub-second seeded commands are drawn this many times per pass, so that
# their times average over more than one input and one machine hiccup
CHEAP_DRAWS = 5

# the singular workload solves each small tensor this many times per
# pass, for the same reason; its inputs are fixed
SMALL_REPEATS = 4

# nominal seconds of one pass, which turn --seconds into whole passes
PASS_SECONDS = {"generic": 20.0, "singular": 30.0, "commands": 27.0}

RESIDUAL_TOL = 1e-8          # relative einsum residual of a regular root
SINGULAR_RESIDUAL_TOL = 1e-6  # endgame roots on singular components
VALUE_TOL = 1e-6

MOTZKIN = {(4, 2, 0): 1.0, (2, 4, 0): 1.0, (2, 2, 2): -3.0, (0, 0, 6): 1.0}

# (4,2) tensor that teneig calls nilpotent at k = 6 (see README)
NILPOTENCY_FAULT = [1, 2, -1, 3, 1, 1, 2, -1, 1, 0, 2, 1, -3, 1, 1, 2]


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    tag: str = ""                # shape key of spectra.solve_s.<tag>
    known_fault: bool = False    # fails every run until the fault is mended


@dataclass(frozen=True)
class Workload:
    ops: tuple
    warmup: Op
    pass_seconds: float


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's operations; inputs depend on `seed` alone.

    Each workload function returns groups of like operations, and each
    group is spread evenly over the pass, so that no short stretch of
    machine noise falls on all the small operations of a run.  The first
    operation of the first group, a small one, is the warm-up.
    """
    rng = np.random.default_rng((WORKLOADS.index(name), seed))
    groups = {"generic": _generic, "singular": _singular,
              "commands": _commands}[name](rng, workdir, seed)
    placed = [((i + 0.5) / len(g), op) for g in groups
              for i, op in enumerate(g)]
    placed.sort(key=lambda p: p[0])     # stable: ties keep group order
    return Workload(tuple(op for _, op in placed), groups[0][0],
                    PASS_SECONDS[name])


# ---------------------------------------------------------------- checks


def _pairs(report):
    return [(complex(c.representative.lam), np.asarray(c.representative.x))
            for c in report.classes]


def _residuals(arr, pairs, tol):
    for lam, x in pairs:
        r = checks.relative_residual(arr, lam, x)
        if not r <= tol:
            return f"residual {r:.2e} > {tol:.0e} at lambda={lam:.6g}"
    return None


def _values(values, targets, tol=VALUE_TOL):
    got = [complex(v) for v in values]
    if not checks.match_multiset(got, targets, tol):
        return f"normalized values {got} != {targets}"
    return None


def _generic_check(arr):
    m, n = arr.ndim, arr.shape[0]

    def check(report):
        if not report.clean:
            return (f"not clean: failed_paths={report.failed_paths} "
                    f"positive_dimensional={report.positive_dimensional} "
                    f"degenerate_clusters={report.degenerate_clusters}")
        if len(report.classes) != checks.class_count(m, n):
            return f"{len(report.classes)} classes, want {checks.class_count(m, n)}"
        if any(c.multiplicity != 1 for c in report.classes):
            return "a class of multiplicity > 1"
        pairs = _pairs(report)
        for i, (lam, x) in enumerate(pairs):
            for lam2, x2 in pairs[i + 1:]:
                if checks.equivalent_pairs(m, lam, x, lam2, x2):
                    return "two classes are equivalent"
        return _residuals(arr, pairs, RESIDUAL_TOL)
    return check


def _singular_check(arr, test):
    def check(report):
        return test(report) or _residuals(arr, _pairs(report),
                                          SINGULAR_RESIDUAL_TOL)
    return check


def _motzkin_test(report):
    if not report.clean:
        return "not clean"
    if report.total_multiplicity != 31:
        return f"total multiplicity {report.total_multiplicity} != 31"
    return _values(report.normalized_values, [0.0, 3 / 32, 1.5, 6.0])


def _family_test(report):
    if not report.positive_dimensional:
        return "family not flagged positive_dimensional"
    return _values(report.normalized_values, [-2.0, 2.0])


def _isotropic_test(report):
    iso = [c for c in report.classes if c.isotropic]
    if len(iso) != 1 or abs(complex(iso[0].representative.lam)) > 1e-8:
        return f"{len(iso)} isotropic classes, want one with lambda = 0"
    return _values(report.normalized_values, [-1.0, 1.0])


def _coordinate_points(points):
    """None if `points` are the three coordinate points of P^2."""
    if len(points) != 3:
        return f"{len(points)} points, want the 3 coordinate points"
    hits = sorted(int(np.argmax(np.abs(p))) for p in points
                  if np.sum(np.abs(p) > 1e-6 * np.max(np.abs(p))) == 1)
    return None if hits == [0, 1, 2] else "not the coordinate points"


def _cre_test(report):
    if any(abs(lam) > 1e-8 for lam, _ in _pairs(report)):
        return "an eigenvalue != 0"
    return _coordinate_points([x for _, x in _pairs(report)])


def _zero_test(report):
    return None if report.positive_dimensional else \
        "zero tensor not flagged positive_dimensional"


# ------------------------------------------------------------- workloads


def _complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _solve(A):
    return lambda: spectra.eigenclasses(A)


def _generic(rng, workdir, seed):
    groups = []
    for (m, n), count in GENERIC_MIX:
        groups.append([])
        for i in range(count):
            arr = _complex_gaussian(rng, (n,) * m)
            groups[-1].append(Op(f"eigenclasses m{m}n{n} #{i}",
                                 _solve(Tensor(m, n, arr)),
                                 _generic_check(arr), tag=f"m{m}n{n}"))
    return groups


def _cre():
    # (A x^2) = (x1 x2, x1 x3, 2 x2 x3): every eigenvalue is 0, since
    # lam != 0 forces x3 = 0 (third row), then x1 x3 = 0 = lam x2 and
    # x1 x2 = lam x1 force x = 0; the zeros of A x^2 are the coordinate
    # points
    cre = np.zeros((3, 3, 3), dtype=np.complex128)
    cre[0, 0, 1] = 1.0
    cre[1, 0, 2] = 1.0
    cre[2, 1, 2] = 2.0
    return cre


def _symmetric_tensor(m: int, n: int, terms: dict) -> np.ndarray:
    """Symmetric tensor whose form x.(A x^{m-1}) is m times sum c x^e.

    Every index tuple with content e gets m * c * e! / m!, so that
    A x^{m-1} is the gradient of the form.
    """
    arr = np.zeros((n,) * m, dtype=np.complex128)
    for expo, c in terms.items():
        weight = math.prod(math.factorial(e) for e in expo)
        base = [v for v, e in enumerate(expo) for _ in range(e)]
        for idx in set(itertools.permutations(base)):
            arr[idx] = m * c * weight / math.factorial(m)
    return arr


def _singular(rng, workdir, seed):
    fam = np.zeros((3, 3, 3), dtype=np.complex128)
    fam[0, 0, 0] = 2.0
    for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0),
                (0, 2, 2), (2, 0, 2), (2, 2, 0)):
        fam[idx] = 1.0
    iso = np.array([-2j, 1, 1, 0, 1, 0, 0, 1]).reshape(2, 2, 2)
    motzkin = _symmetric_tensor(6, 3, MOTZKIN)
    cases = (("isotropic m3n2", iso, _isotropic_test, ""),
             ("family m3n3", fam, _family_test, ""),
             ("cre m3n3", _cre(), _cre_test, ""),
             ("zero m3n3", np.zeros((3, 3, 3)), _zero_test, ""),
             ("motzkin m6n3", motzkin, _motzkin_test, "motzkin"))
    # each repeat gets a Tensor object of its own, so that no cache kept on
    # the input can serve a repeat
    return [[Op(f"eigenclasses {label}",
                _solve(Tensor(a.ndim, a.shape[0], a)),
                _singular_check(a, test), tag=tag)
             for _ in range(1 if tag else SMALL_REPEATS)]
            for label, a, test, tag in cases]


# --------------------------------------------------------------- commands


def _command(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()
    return run


def _machine(code, text, want_code):
    if code != want_code:
        raise ValueError(f"exit code {code}, want {want_code}")
    return json.loads(text)


def _pair(p):
    return complex(p[0], p[1])


def _checked(test, want_code=0):
    """Wrap a check of parsed machine output with the exit-code check."""
    def check(result):
        try:
            return test(_machine(*result, want_code))
        except (ValueError, KeyError, TypeError) as e:
            return str(e)
    return check


def _eig_binary(arr):
    m = arr.ndim

    def test(out):
        if out["summary"]["failed_paths"] or \
                out["summary"]["positive_dimensional"]:
            return "degenerate summary"
        got = [(_pair(c["lambda"]), np.array([_pair(z) for z in c["x"]]))
               for c in out["classes"]]
        if len(got) != m or any(c["multiplicity"] != 1 for c in out["classes"]):
            return f"{len(got)} classes, want {m} of multiplicity 1"
        for lam, x in checks.binary_eigenpairs(arr):
            if sum(checks.equivalent_pairs(m, lam, x, g, y)
                   for g, y in got) != 1:
                return f"np.roots eigenpair lambda={lam:.6g} not matched once"
        return _residuals(arr, got, RESIDUAL_TOL)
    return _checked(test)


def _eig_matrix(M):
    def test(out):
        lams = [_pair(c["lambda"]) for c in out["classes"]
                for _ in range(c["multiplicity"])]
        if not checks.match_multiset(lams, list(np.linalg.eigvals(M)), 1e-8):
            return f"eigenvalues {lams} != np.linalg.eigvals"
        return _residuals(M, [(_pair(c["lambda"]),
                               np.array([_pair(z) for z in c["x"]]))
                              for c in out["classes"]], RESIDUAL_TOL)
    return _checked(test)


def _mu_values(arr):
    """lambda^2 at x.x = 1 for every eigenvector of an order-3 n = 2 tensor."""
    return [checks.normalized_value(3, lam, x) ** 2
            for lam, x in checks.binary_eigenpairs(arr)]


def _charpoly(arr):
    def test(out):
        if out["indeterminate"] or out["parity"] != "mu":
            return f"indeterminate or wrong parity: {out}"
        got = np.array([_pair(c) for c in out["coeffs"]])
        want = np.poly(_mu_values(arr))
        if got.shape != want.shape or np.max(np.abs(got - want)) > \
                1e-8 * (1.0 + np.max(np.abs(want))):
            return f"coefficients {got} != {want}"
        return None
    return _checked(test)


def _hyperdet(fractions):
    def test(out):
        want = checks.cayley_hyperdeterminant(fractions)
        got = Fraction(out["hyperdet"])
        return None if got == want else f"hyperdet {got} != {want}"
    return _checked(test)


def _psd(want):
    def test(out):
        return None if out["psd"] is want else f"psd {out['psd']}, want {want}"
    return _checked(test)


def _singular_binary(fractions, exceptions=()):
    arr = np.array(fractions, dtype=object).reshape(2, 2, 2)
    vanishes = not any(checks.binary_eigen_polynomial(arr))

    def test(out):
        probe = out["probe"]
        if out["exact"] is not vanishes:
            return f"exact {out['exact']}, want {vanishes}"
        if vanishes:
            if probe["kind"] != "cofinite_complement":
                return f"probe {probe['kind']}, want cofinite_complement"
            return _values([_pair(v) for v in probe["exceptions"]],
                           list(exceptions))
        if probe["kind"] != "finite_values":
            return f"probe {probe['kind']}, want finite_values"
        nums = np.array(fractions, dtype=float).reshape(2, 2, 2)
        # probe values are distinct: a value 0 appears once, not as +-0
        want = checks.distinct(
            s * checks.normalized_value(3, lam, x)
            for lam, x in checks.binary_eigenpairs(nums) for s in (1, -1))
        return _values([_pair(v) for v in probe["values"]], want)
    return _checked(test)


def _base_points(out, arr, tol=1e-8):
    pts = [np.array([_pair(z) for z in p]) for p in out["base_locus"]]
    for p in pts:
        if checks.relative_residual(arr, 0.0, p) > tol:
            return pts, "a base point where A x^{m-1} != 0"
    return pts, None


def _dynamics_cre(arr):
    def test(out):
        pts, bad = _base_points(out, arr)
        nil = out["nilpotency"]
        if nil["status"] != "undetermined" or nil["k"] != 6:
            return f"nilpotency {nil}, want undetermined at kmax 6"
        return bad or _coordinate_points(pts)
    return _checked(test, want_code=2)


def _dynamics_matrix(M):
    k = next(k for k in range(1, len(M) + 1)
             if not np.any(np.linalg.matrix_power(M, k)))

    def test(out):
        nil = out["nilpotency"]
        if nil["status"] != "nilpotent" or nil["k"] != k:
            return f"nilpotency {nil}, want nilpotent with k = {k}"
        return _base_points(out, M)[1]
    return _checked(test)


def _dynamics_eigenpair(arr, find):
    """Any tensor with a reference eigenpair lam != 0 is not nilpotent."""
    def test(out):
        reference = find()
        if reference is None:
            return "the reference found no eigenpair with lambda != 0"
        nil = out["nilpotency"]
        if nil["status"] != "not_nilpotent" or \
                abs(_pair(nil["witness_lambda"])) <= 1e-8:
            return (f"nilpotency {nil}, but lambda = {reference[0]:.6g} "
                    f"is an eigenvalue")
        return _base_points(out, arr)[1]
    return _checked(test)


def _dense(arr, exact=False):
    if exact:
        return [str(v) for v in np.ravel(arr)]
    return [[float(z.real), float(z.imag)] for z in np.ravel(arr)]


def _rational_222(rng):
    return [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
            for _ in range(8)]


QUADRATIC_MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2),
                       (1, 1, 0), (1, 0, 1), (0, 1, 1))


def _quartic_sos(rng):
    """Sum of three squared random integer quadratics in three variables."""
    terms: dict = {}
    for _ in range(3):
        q = [(e, int(rng.integers(-4, 5))) for e in QUADRATIC_MONOMIALS]
        for e1, c1 in q:
            for e2, c2 in q:
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
    return terms


def _form_at(terms, p):
    return sum(c * np.prod([pi ** e for pi, e in zip(p, expo)])
               for expo, c in terms.items())


def _negative_at(terms, rng):
    """terms - K x1^4 with K so that the form is negative at a seeded p."""
    p = [1] + [int(v) for v in rng.integers(-2, 3, size=2)]
    K = int(_form_at(terms, p)) + 1     # p1 = 1, so x1^4 = 1 at p
    out = dict(terms)
    out[(4, 0, 0)] = out.get((4, 0, 0), 0) - K
    return out


def _form_entries(terms):
    return [{"exponents": list(e), "coeff": c}
            for e, c in sorted(terms.items()) if c]


def _commands(rng, workdir, seed):
    workdir.mkdir(parents=True, exist_ok=True)
    groups: dict = {}       # name -> operations; cheap draws, then the rest

    def file(key, m, n, entries, encoding="dense"):
        path = workdir / f"{key}.json"
        path.write_text(json.dumps({"m": m, "n": n, "encoding": encoding,
                                    "entries": entries}))
        return path

    def add(cmd, path, check, known_fault=False, group="single"):
        groups.setdefault(group, []).append(Op(
            f"{cmd} {path.stem}",
            _command([cmd, str(path), "--format", "machine"]),
            check, known_fault=known_fault))

    for i in range(CHEAP_DRAWS):
        t32 = _complex_gaussian(rng, (2, 2, 2))
        add("eig", file(f"t32-{i}", 3, 2, _dense(t32)), _eig_binary(t32),
            group="t32")
        t42 = _complex_gaussian(rng, (2, 2, 2, 2))
        add("eig", file(f"t42-{i}", 4, 2, _dense(t42)), _eig_binary(t42),
            group="t42")
        rat = _rational_222(rng)
        path = file(f"rat-{i}", 3, 2, _dense(rat, exact=True))
        add("charpoly", path, _charpoly(np.array(rat, float).reshape(2, 2, 2)),
            group="charpoly")
        add("hyperdet", path, _hyperdet(rat), group="hyperdet")
        add("singular", path, _singular_binary(rat), group="singular")
    mat = _complex_gaussian(rng, (4, 4))
    add("eig", file("mat", 2, 4, _dense(mat)), _eig_matrix(mat))
    add("psd", file("sos", 4, 3, _form_entries(_quartic_sos(rng)), "form"),
        _psd(True))
    neg = _negative_at(_quartic_sos(rng), rng)
    add("psd", file("neg", 4, 3, _form_entries(neg), "form"), _psd(False))
    # the criterion-05 tensor: A x^2 = (x1 + i x2) x, so every x is an
    # eigenvector, and lambda = 0 needs x.x = 0: 0 is the one exception
    add("singular", file("c05", 3, 2, [1, "i", 0, 0, 0, 0, 1, "i"]),
        _singular_binary([Fraction(1), 1j, 0, 0, 0, 0, Fraction(1), 1j],
                         exceptions=[0.0]))
    add("dynamics", file("cre", 3, 3, _dense(_cre())), _dynamics_cre(_cre()))
    low = np.tril(rng.standard_normal((4, 4)), -1)
    add("dynamics", file("low", 2, 4, _dense(low)), _dynamics_matrix(low))
    g33 = _complex_gaussian(rng, (3, 3, 3))
    add("dynamics", file("g33", 3, 3, _dense(g33)), _dynamics_eigenpair(
        g33, lambda: checks.newton_eigenpair(g33, np.random.default_rng(seed))))
    fault = np.array(NILPOTENCY_FAULT, dtype=float).reshape((2,) * 4)
    add("dynamics", file("fault", 4, 2, NILPOTENCY_FAULT), _dynamics_eigenpair(
        fault, lambda: next((p for p in checks.binary_eigenpairs(fault)
                             if abs(p[0]) > 1e-8), None)),
        known_fault=True)
    return list(groups.values())
