"""Small exact linear-algebra helpers over an arbitrary field.

Entries only need +, -, *, / and truthiness (nonzero test); Fraction,
ParamScalar and float all qualify.  Elimination takes the first nonzero
pivot of each column, with no magnitude ordering: the Levi-Civita system
has the same 0/+-1 matrix for every metric, so it is eliminated once per
process, exactly (a float metric enters only the right-hand side), and the
monopole system has exact ParamScalar entries.
"""

from __future__ import annotations

__all__ = ["SingularSystemError", "solve_overdetermined"]


class SingularSystemError(ValueError):
    """The linear system has no unique solution."""


def _eliminate(rows, ncols):
    """In-place Gauss-Jordan elimination, each pivot column left zero outside
    its pivot row; returns the list of pivot column indices."""
    pivots = []
    r = 0
    for col in range(ncols):
        if r >= len(rows):
            break
        p = next((q for q in range(r, len(rows)) if rows[q][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivots.append(col)
        inv = rows[r][col]
        for rr in range(len(rows)):
            if rr == r:
                continue
            f = rows[rr][col]
            if not f:
                continue
            scale = f / inv
            rows[rr] = [a - scale * b for a, b in zip(rows[rr], rows[r])]
        r += 1
    return pivots


def solve_overdetermined(a, b):
    """Solve A x = b for an m x n system with m >= n.

    Raises SingularSystemError when the solution is not unique or the system
    is inconsistent.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [list(a[i]) + [b[i]] for i in range(m)]
    pivots = _eliminate(rows, n)
    if len(pivots) < n:
        raise SingularSystemError("system has a nontrivial kernel")
    # consistency: rows beyond the pivots must have vanishing rhs
    for r in range(len(pivots), m):
        if rows[r][n]:
            raise SingularSystemError("system is inconsistent")
    x = [None] * n
    for r, col in enumerate(pivots):
        x[col] = rows[r][n] / rows[r][col]
    return x
