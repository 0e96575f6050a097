"""An exact two-class oracle that shares no code with solve_exact: a 0/1
program solved by scipy.optimize.milp (HiGHS).

Variable x_v is 1 when v is in class 0 and 0 when it is in class 1.  Each
vertex v of degree deg(v) gets two big-M rows, where s_v is the number of
v's neighbors in class 0:

    class-0 neighbors:  s_v           <= d_0 + deg(v) * (1 - x_v)
    class-1 neighbors:  deg(v) - s_v  <= d_1 + deg(v) * x_v

A row binds only when v is in its class; otherwise deg(v) covers any
count.  Both rows read the same linear form s_v + deg(v) * x_v, so they
are one two-sided row: deg(v) - d_1 <= s_v + deg(v) * x_v <= deg(v) + d_0.
The objective is zero: any feasible point is a coloring.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array


def ilp_two_class(graph, defects):
    """A (d_0, d_1)-coloring of graph as a tuple of classes, or None when
    the program is infeasible."""
    d0, d1 = defects
    n = graph.n
    rows, cols, coef = [], [], []
    for v in range(n):
        nbrs = graph.rotation[v]
        rows += [v] * (len(nbrs) + 1)
        cols += [*nbrs, v]
        coef += [1] * len(nbrs) + [len(nbrs)]
    deg = np.array([graph.degree(v) for v in range(n)], dtype=float)
    form = LinearConstraint(coo_array((coef, (rows, cols)), shape=(n, n)),
                            deg - d1, deg + d0)
    res = milp(np.zeros(n), integrality=np.ones(n), bounds=Bounds(0, 1),
               constraints=form)
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"milp ended without an answer: {res.message}")
    return tuple(0 if x > 0.5 else 1 for x in res.x)
