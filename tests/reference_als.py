"""Reference implementations for the solver and CV oracle tests.

The ALS sweep, prediction and held-out scoring written with full-tensor
mode products (`tensordot`), as they ran before the matricized rank-space
kernel in `mtot.solver`. The kernel must reproduce them to rounding.
"""

import numpy as np

from mtot.solver import _score_solver, input_projection
from mtot.tensor import mode_product, unfold


def reference_als(y, scores, bases, tol, max_iter):
    """Sweep loop on full tensors via mode products; returns (cores, bases, trace, stagnated)."""
    d = y.ndim - 1
    p = len(scores)
    out_ranks = tuple(v.shape[1] for v in bases)
    bases = list(bases)
    solvers = [_score_solver(z) for z in scores]

    y_by_scores = [mode_product(y, z.T, 0) for z in scores]
    y_by_solvers = [mode_product(y, s, 0) for s in solvers]
    score_gram = [[scores[j].T @ scores[k] for k in range(p)] for j in range(p)]
    solver_cross = [[solvers[j] @ scores[k] for k in range(p)] for j in range(p)]
    y_norm2 = float(np.vdot(y, y))

    cores = [np.zeros((z.shape[1],) + out_ranks) for z in scores]

    def project_outputs(t, skip=-1):
        for i, v in enumerate(bases):
            if i != skip:
                t = mode_product(t, v.T, i + 1)
        return t

    def current_loss():
        total = y_norm2
        for j in range(p):
            total -= 2.0 * float(np.vdot(project_outputs(y_by_scores[j]), cores[j]))
            for k in range(p):
                total += float(np.vdot(cores[j], mode_product(cores[k], score_gram[j][k], 0)))
        return max(total, 0.0)

    trace = [y_norm2]
    stagnated = False
    threshold = tol * max(y_norm2, 1.0)
    for _ in range(max_iter):
        for j in range(p):
            core = project_outputs(y_by_solvers[j])
            for k in range(p):
                if k != j:
                    core = core - mode_product(cores[k], solver_cross[j][k], 0)
            cores[j] = core
        for i in range(d):
            design_gram = None
            for j in range(p):
                partial = unfold(project_outputs(y_by_scores[j], skip=i), i + 1)
                g = partial @ unfold(cores[j], i + 1).T
                design_gram = g if design_gram is None else design_gram + g
            if not np.any(design_gram):
                stagnated = True
                continue
            r, _, wt = np.linalg.svd(design_gram, full_matrices=False)
            bases[i] = r @ wt
        trace.append(current_loss())
        if abs(trace[-2] - trace[-1]) <= threshold:
            break
    return cores, bases, trace, stagnated


def reference_predict(scores, cores, bases):
    """Sum over inputs of core x_0 scores x_1 V_1 ... x_d V_d."""
    out = None
    for z, core in zip(scores, cores):
        part = mode_product(core, z, 0)
        for i, v in enumerate(bases):
            part = mode_product(part, v, i + 1)
        out = part if out is None else out + part
    return out


def reference_held_out_rss(train, held_xs, held_y, factors, bases, tol, max_iter):
    """Held-out RSS per entry of one reference fit, as the per-tuple CV loop scored it."""
    scores = [input_projection(x, f) for x, f in zip(train.xs, factors)]
    cores, bases, _, _ = reference_als(train.y, scores, bases, tol, max_iter)
    held = [input_projection(x, f) for x, f in zip(held_xs, factors)]
    resid = held_y - reference_predict(held, cores, bases)
    return float(np.vdot(resid, resid)) / resid.size
