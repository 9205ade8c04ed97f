"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports fairctl: every formula is written out again from the
definitions, so a fault in the package cannot hide behind a shared helper.
Each ``check_*`` function takes the parsed JSON report of one operation plus
the inputs the benchmark generated for it, and returns a list of problems
(empty when the answer is right).

Tolerances, fixed before any run:

* ``EPS_MAX_TOL``: absolute error allowed on eps_max, cv and cv_bound.
* ``OBJECTIVE_TOL``: error allowed on an optimal objective, relative to
  ``max(1, max|c|)``.
* ``FEASIBILITY_TOL``: slack on sum(x) = 1, x >= 0 and the lp-ball
  condition ``(1 + eps D_p) ||x||_p <= 1``.
* ``PROJECTION_TOL``: max-norm distance allowed from the exact projection
  (p = 2 and p = infinity).
* ``KKT_TOL``: stationarity residual allowed for a finite-p projection.
"""

from __future__ import annotations

import math

import numpy as np

EPS_MAX_TOL = 1e-9
OBJECTIVE_TOL = 1e-6
FEASIBILITY_TOL = 1e-8
PROJECTION_TOL = 1e-6
KKT_TOL = 1e-6

#: Ends the problem ``check_project`` reports for a point farther than
#: PROJECTION_TOL from the exact projection.
FAR_FROM_EXACT = "from the exact projection"

#: The suites ``verify --suite all`` must report, in this order.
SUITES = (
    "cv-bound",
    "inclusion",
    "equivalence",
    "corner",
    "entropy-identity",
    "entropy-sandwich",
    "lemma-a1",
    "f-decreasing",
    "norm-equivalence",
    "eps-nesting",
)

_BISECTIONS = 200


def p_from_token(token) -> float:
    """Exponent as written in a report: a number or the string 'inf'."""
    return math.inf if token == "inf" else float(token)


def lp_norm(x: np.ndarray, p: float) -> np.ndarray:
    """lp norm of each row (last axis), with the largest entry factored out."""
    x = np.asarray(x, dtype=float)
    peak = np.abs(x).max(axis=-1)
    if math.isinf(p):
        return peak
    safe = np.where(peak > 0, peak, 1.0)
    return safe * (np.abs(x / safe[..., None]) ** p).sum(axis=-1) ** (1.0 / p)


def d_p(n: int, p: float) -> float:
    """The dispersion constant n^(1 - 1/p) - 1 (n - 1 at p = infinity)."""
    return n - 1.0 if math.isinf(p) else n ** (1.0 - 1.0 / p) - 1.0


def radius(n: int, eps: float, p: float) -> float:
    """lp radius of the fair set on the simplex: 1 / (1 + eps D_p)."""
    return 1.0 / (1.0 + eps * d_p(n, p))


def eps_max(rows: np.ndarray, p: float) -> np.ndarray:
    """(||x||_1 / ||x||_p - 1) / D_p for each row of nonnegative vectors."""
    rows = np.asarray(rows, dtype=float)
    return (rows.sum(axis=-1) / lp_norm(rows, p) - 1.0) / d_p(rows.shape[-1], p)


def cv(rows: np.ndarray) -> np.ndarray:
    """Coefficient of variation, population std over mean, of each row."""
    rows = np.asarray(rows, dtype=float)
    return rows.std(axis=-1) / rows.mean(axis=-1)


def cv_bound(n: int, eps: float, p: float) -> float:
    """Bound on CV^2 over the (eps, p) fair set: (D+1)^2 / (1 + eps D)^2 - 1."""
    d = d_p(n, p)
    return ((d + 1.0) / (1.0 + eps * d)) ** 2 - 1.0


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort and threshold)."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, y.size + 1)
    rho = k[u - css / k > 0][-1]
    return np.maximum(y - css[rho - 1] / rho, 0.0)


def project_p2(y: np.ndarray, eps: float) -> np.ndarray:
    """Exact projection onto the simplex within the l2 ball of the fair set.

    The KKT conditions give x = Proj_simplex(alpha * y) for one alpha in
    (0, 1]; ||Proj_simplex(alpha * y)||_2 grows with alpha, so bisection on
    alpha finds the one whose point lies on the ball.
    """
    r = radius(y.size, eps, 2.0)
    x = project_simplex(y)
    if np.linalg.norm(x) <= r:
        return x
    lo, hi = 0.0, 1.0
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(project_simplex(mid * y)) > r:
            hi = mid
        else:
            lo = mid
    return project_simplex(lo * y)


def project_pinf(y: np.ndarray, eps: float) -> np.ndarray:
    """Exact projection onto the capped simplex {x : sum x = 1, 0 <= x <= r}.

    The point is clip(y - tau, 0, r); its sum falls as tau grows, so
    bisection on the threshold tau finds sum = 1.
    """
    r = radius(y.size, eps, math.inf)
    lo, hi = float(y.min()) - 1.0, float(y.max())
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if np.clip(y - mid, 0.0, r).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(y - 0.5 * (lo + hi), 0.0, r)


def kkt_residual(x: np.ndarray, y: np.ndarray, eps: float, p: float) -> float:
    """Stationarity residual of x as the projection of y onto the fair region.

    At the projection, y_i - x_i = mu + lam * p * x_i^(p-1) on the support of
    x and y_i <= mu off it, with lam >= 0, and lam > 0 only when x lies on
    the ball. mu and lam are fitted by least squares over the support (lam
    is set to 0 when the fit makes it negative), and the worst violation of
    these conditions, complementarity included, is returned.
    """
    r = radius(x.size, eps, p)
    g = y - x
    support = x > 1e-12
    grad = p * np.where(support, x, 0.0) ** (p - 1.0)
    design = np.column_stack([np.ones(int(support.sum())), grad[support]])
    (mu, lam), *_ = np.linalg.lstsq(design, g[support], rcond=None)
    if lam < 0.0:
        mu, lam = float(g[support].mean()), 0.0
    residual = float(np.abs(g[support] - mu - lam * grad[support]).max())
    if (~support).any():
        residual = max(residual, float((y[~support] - mu).max()))
    gap = max(0.0, r - float(lp_norm(x, p))) / r
    return max(residual, lam * gap)


def feasibility_violation(x: np.ndarray, eps: float, p: float) -> float:
    """Worst violation of sum(x) = 1, x >= 0 and (1 + eps D_p) ||x||_p <= 1."""
    scale = 1.0 + eps * d_p(x.size, p)
    return max(
        abs(float(x.sum()) - 1.0),
        -float(x.min()),
        scale * float(lp_norm(np.maximum(x, 0.0), p)) - 1.0,
    )


def max_objective(c: np.ndarray, eps: float, p: float) -> float:
    """max c.x over the simplex within the (eps, p) lp ball, through its dual.

    The dual is min over mu of g(mu) = mu + r ||(c - mu)_+||_q with
    1/p + 1/q = 1, a 1-D convex problem. At p = infinity g is piecewise
    linear with its minimum at one of the c_i; otherwise bisection on the
    sign of g' finds the minimiser. At eps = 1 the set is the single point
    e/n.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if eps == 1.0:
        return float(c.mean())
    r = radius(n, eps, p)
    if math.isinf(p):
        return min(float(mu + r * np.maximum(c - mu, 0.0).sum()) for mu in c)
    q = p / (p - 1.0)

    def g(mu: float) -> float:
        return mu + r * float(lp_norm(np.maximum(c - mu, 0.0), q))

    def slope(mu: float) -> float:
        a = np.maximum(c - mu, 0.0)
        norm = float(lp_norm(a, q))
        if norm == 0.0:
            return 1.0
        return 1.0 - r * float(((a / norm) ** (q - 1.0)).sum())

    hi = float(c.max())
    width = max(hi - float(c.min()), 1.0)
    lo = hi - width
    while slope(lo) > 0.0:
        lo -= width
        width *= 2.0
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return g(0.5 * (lo + hi))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_screen(doc: dict, rows: np.ndarray, ps: list[float], eps: float | None) -> list[str]:
    """Check a ``check`` (eps given) or ``epsmax`` (eps None) report."""
    problems = []
    vectors = doc["results"]["vectors"]
    if len(vectors) != rows.shape[0]:
        return [f"{len(vectors)} vectors reported for {rows.shape[0]} rows"]
    n = rows.shape[1]
    ref_eps = {p: eps_max(rows, p) for p in ps}
    ref_cv = cv(rows)
    all_members = True
    for i, vec in enumerate(vectors):
        got_ps = [p_from_token(entry["p"]) for entry in vec["per_p"]]
        if vec["index"] != i or got_ps != ps:
            problems.append(f"row {i}: index or exponent list is wrong")
            continue
        members = True
        for entry, p in zip(vec["per_p"], ps):
            want = float(ref_eps[p][i])
            if not _close(entry["eps_max"], want, EPS_MAX_TOL):
                problems.append(f"row {i} p={p}: eps_max {entry['eps_max']!r}, want {want!r}")
            if eps is not None:
                member = want >= eps
                members = members and member
                if entry["member"] != member:
                    problems.append(f"row {i} p={p}: member {entry['member']}, want {member}")
                if not _close(entry["cv_bound"], cv_bound(n, eps, p), EPS_MAX_TOL):
                    problems.append(f"row {i} p={p}: cv_bound {entry['cv_bound']!r}")
        if eps is not None:
            all_members = all_members and members
            if vec["member_all_p"] != members:
                problems.append(f"row {i}: member_all_p {vec['member_all_p']}, want {members}")
            if not _close(vec["cv"], float(ref_cv[i]), EPS_MAX_TOL):
                problems.append(f"row {i}: cv {vec['cv']!r}, want {float(ref_cv[i])!r}")
        if len(problems) > 10:
            break
    if eps is not None and doc["results"]["all_members"] != all_members:
        problems.append("all_members is wrong")
    return problems


def check_project(doc: dict, rows: np.ndarray, eps: float, p: float) -> list[str]:
    """Check a ``project`` report row by row against the exact projection."""
    problems = []
    points = doc["results"]["points"]
    if len(points) != rows.shape[0]:
        return [f"{len(points)} points reported for {rows.shape[0]} rows"]
    for i, (entry, y) in enumerate(zip(points, rows)):
        x = np.array(entry["point"], dtype=float)
        if x.shape != y.shape:
            problems.append(f"row {i}: point has shape {x.shape}")
            continue
        violation = feasibility_violation(x, eps, p)
        if violation > FEASIBILITY_TOL:
            problems.append(f"row {i}: infeasible by {violation:.3g}")
        if p == 2.0 or math.isinf(p):
            exact = project_p2(y, eps) if p == 2.0 else project_pinf(y, eps)
            dist = float(np.abs(x - exact).max())
            if dist > PROJECTION_TOL:
                problems.append(f"row {i}: {dist:.3g} {FAR_FROM_EXACT}")
        else:
            res = kkt_residual(x, y, eps, p)
            if res > KKT_TOL:
                problems.append(f"row {i}: KKT residual {res:.3g}")
    return problems


def check_solve(doc: dict, c: np.ndarray, eps: float, p: float) -> list[str]:
    """Check a ``solve`` report: optimal objective, consistent and feasible point."""
    res = doc["results"]
    x = np.array(res["x_opt"], dtype=float)
    scale = max(1.0, float(np.abs(c).max()))
    problems = []
    want = max_objective(c, eps, p)
    if not _close(res["objective_value"], want, OBJECTIVE_TOL * scale):
        problems.append(f"objective {res['objective_value']!r}, want {want!r}")
    if not _close(float(c @ x), res["objective_value"], 1e-12 * scale * c.size):
        problems.append("objective_value is not c . x_opt")
    violation = feasibility_violation(x, eps, p)
    if violation > FEASIBILITY_TOL:
        problems.append(f"x_opt infeasible by {violation:.3g}")
    return problems


def check_sweep(doc: dict, c: np.ndarray, p: float, grid: list[float]) -> list[str]:
    """Check a ``sweep`` report: every point optimal, the front non-increasing."""
    points = doc["results"]["points"]
    got = [pt["epsilon"] for pt in points]
    if len(got) != len(grid) or any(not _close(a, b, 1e-12) for a, b in zip(got, grid)):
        return [f"epsilon grid {got}, want {grid}"]
    scale = max(1.0, float(np.abs(c).max()))
    n = c.size
    problems = []
    for pt in points:
        eps = pt["epsilon"]
        want = max_objective(c, eps, p)
        if not _close(pt["objective"], want, OBJECTIVE_TOL * scale):
            problems.append(f"eps={eps}: objective {pt['objective']!r}, want {want!r}")
        bound = cv_bound(n, eps, p)
        if not _close(pt["cv_bound"], bound, EPS_MAX_TOL):
            problems.append(f"eps={eps}: cv_bound {pt['cv_bound']!r}, want {bound!r}")
        if pt["cv"] ** 2 > bound + FEASIBILITY_TOL:
            problems.append(f"eps={eps}: cv {pt['cv']!r} breaks the CV bound")
    values = [pt["objective"] for pt in points]
    if any(b > a + OBJECTIVE_TOL * scale for a, b in zip(values, values[1:])):
        problems.append("objective increases with epsilon")
    if grid[0] == 0.0 and not _close(values[0], float(c.max()), OBJECTIVE_TOL * scale):
        problems.append(f"objective at eps=0 is {values[0]!r}, want max(c)")
    if grid[-1] == 1.0 and not _close(values[-1], float(c.mean()), OBJECTIVE_TOL * scale):
        problems.append(f"objective at eps=1 is {values[-1]!r}, want mean(c)")
    return problems


def check_verify(doc: dict) -> list[str]:
    """Check a ``verify --suite all`` report: every suite ran samples and passed."""
    res = doc["results"]
    names = [s["name"] for s in res["suites"]]
    if tuple(names) != SUITES:
        return [f"suites {names}, want {list(SUITES)}"]
    problems = [
        f"suite {s['name']}: {s['failures']} failures" for s in res["suites"] if s["failures"]
    ]
    problems += [f"suite {s['name']}: checked 0" for s in res["suites"] if s["checked"] <= 0]
    if res["all_passed"] is not True:
        problems.append("all_passed is not true")
    return problems
