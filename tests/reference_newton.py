"""The two Newton solvers that ``symred.numeric`` had before one
``newton_system`` did both jobs: a scalar damped Newton with a bisection
fallback, and a multivariate damped Newton on numpy arrays.  They are
kept verbatim, only as the references the merged solver is tested
against; the multivariate one needs numpy."""

from __future__ import annotations

from symred.expr import DomainFault, Expr, ParameterBinding, eval_numeric
from symred.numeric import NoConvergence


def solve_implicit(res: Expr, unknown, point, binding: ParameterBinding | None = None,
                   guess: float = 0.0, bracket=None, tol: float = 1e-12,
                   max_iter: int = 100) -> float:
    """Damped Newton with numeric derivative on a scalar relation
    ``res == 0``; falls back to bisection once a sign bracket is known."""
    binding = binding or ParameterBinding()

    def f(t: float) -> float:
        p = dict(point)
        p[unknown] = t
        return eval_numeric(res, p, binding)

    lo_hi = None
    if bracket is not None:
        a, b = bracket
        try:
            fa, fb = f(a), f(b)
            if fa == 0.0:
                return a
            if fb == 0.0:
                return b
            if fa * fb < 0:
                lo_hi = (a, fa, b, fb)
        except DomainFault:
            pass

    t = guess
    try:
        ft = f(t)
    except DomainFault:
        if lo_hi is None:
            raise NoConvergence("initial guess out of domain", t)
        t = 0.5 * (lo_hi[0] + lo_hi[2])
        ft = f(t)

    for _ in range(max_iter):
        if abs(ft) < tol:
            return t
        h = 1e-7 * (1.0 + abs(t))
        try:
            d = (f(t + h) - f(t - h)) / (2 * h)
        except DomainFault:
            d = 0.0
        stepped = False
        if d != 0.0:
            step = ft / d
            for _ in range(40):
                try:
                    t2 = t - step
                    ft2 = f(t2)
                except DomainFault:
                    step *= 0.5
                    continue
                if abs(ft2) < abs(ft) or abs(ft2) < tol:
                    if (ft > 0) != (ft2 > 0):
                        lo_hi = (t, ft, t2, ft2)
                    t, ft = t2, ft2
                    stepped = True
                    break
                step *= 0.5
        if not stepped:
            if lo_hi is None:
                raise NoConvergence("Newton stalled without a bracket", t, ft)
            a, fa, b, fb = lo_hi
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = f(m)
                if abs(fm) < tol:
                    return m
                if (fa > 0) != (fm > 0):
                    b, fb = m, fm
                else:
                    a, fa = m, fm
            raise NoConvergence("bisection did not converge", 0.5 * (a + b), fm)
    if abs(ft) < tol:
        return t
    raise NoConvergence("iteration limit reached", t, ft)


def newton_system(residuals, unknowns, point, binding: ParameterBinding | None = None,
                  guesses=None, tol: float = 1e-12, max_iter: int = 80):
    """Small multivariate damped Newton with finite-difference Jacobian.
    ``residuals``/``unknowns`` are parallel lists; returns a value list."""
    import numpy as np

    binding = binding or ParameterBinding()
    k = len(unknowns)
    vals = list(guesses) if guesses is not None else [0.1] * k

    def g(vs):
        p = dict(point)
        p.update(zip(unknowns, vs))
        return np.array([eval_numeric(r, p, binding) for r in residuals])

    gv = g(vals)
    for _ in range(max_iter):
        nrm = float(np.max(np.abs(gv)))
        if nrm < tol:
            return vals
        jac = np.zeros((k, k))
        for j in range(k):
            h = 1e-7 * (1.0 + abs(vals[j]))
            up = list(vals)
            dn = list(vals)
            up[j] += h
            dn[j] -= h
            jac[:, j] = (g(up) - g(dn)) / (2 * h)
        try:
            step = np.linalg.solve(jac, gv)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular Jacobian", vals, nrm) from exc
        lam = 1.0
        for _ in range(40):
            trial = [v - lam * s for v, s in zip(vals, step)]
            try:
                gt = g(trial)
            except DomainFault:
                lam *= 0.5
                continue
            if float(np.max(np.abs(gt))) < nrm or float(np.max(np.abs(gt))) < tol:
                vals, gv = trial, gt
                break
            lam *= 0.5
        else:
            raise NoConvergence("damping failed", vals, nrm)
    raise NoConvergence("iteration limit reached", vals, float(np.max(np.abs(gv))))
