"""Exact rational lengths as ground truth for the reported float lengths.

Every float input is an exact rational, and a certified pair is fixed by its
faces through linear equations, so its length can be recomputed exactly with
fractions.Fraction alone.  For a regular 3-bounce pair whose p touches T
inside edges, write p_{j+1} = p_j + nu_{j+1} d_{j+1}, d_j the outer normal
of the K facet of q_j, negated and not normalised (so rational).  The five
unknowns p_1 and nu_1..nu_3 solve five linear equations: closure,
sum_j nu_j d_j = 0, and p_j on the line of its T edge for each j.  The
exact length is then ell_{-K}(p) = sum_j max_{v in V(K)} <-v, p_{j+1} - p_j>,
the dual length that certify compares with the reported ell_T(q).

The exact q of such a pair solves three linear equations of its own: q_j =
a_j + t_j (b_j - a_j) on its K facet [a_j, b_j], and q_{j+1} - q_j normal to
the T edge of p_j, <e_j, q_{j+1} - q_j> = 0 for e_j that edge's direction.

Vertex contacts of p and the 2-bounce face tuples are not covered yet.
"""

from fractions import Fraction

import pytest

import corpus


def _rational(points):
    return [(Fraction(x), Fraction(y)) for x, y in points]


def _solve(A, b):
    """The solution of the square system A x = b, by Gaussian elimination
    over the rationals (ValueError if A is singular)."""
    n = len(A)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if M[r][c] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        M[c], M[pivot] = M[pivot], M[c]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c] / M[c][c]
                M[r] = [a - f * e for a, e in zip(M[r], M[c])]
    return [M[r][n] / M[r][r] for r in range(n)]


def _segment(V, i):
    return V[i], V[(i + 1) % len(V)]


def exact_length(K, T, k_facets, t_edges):
    """The exact p (three rational points) and ell_{-K}(p) of the regular
    3-bounce pair with q_j on facet k_facets[j] of K and p_j on edge
    t_edges[j] of T; K and T are lists of rational vertices."""
    d = []  # minus the outer normal of facet [a, b]: the counter-clockwise turn of b - a
    for i in k_facets:
        a, b = _segment(K, i)
        d.append((a[1] - b[1], b[0] - a[0]))
    # unknowns x = (p_1x, p_1y, nu_1, nu_2, nu_3); p_j = p_1 + sum_{2 <= k <= j} nu_k d_k
    A = [[0, 0, d[0][c], d[1][c], d[2][c]] for c in range(2)]
    rhs = [0, 0]
    for j, e in enumerate(t_edges):
        a, b = _segment(T, e)
        m = (b[1] - a[1], a[0] - b[0])  # a normal of the edge's line
        row = [m[0], m[1], 0, 0, 0]
        for k in range(1, j + 1):
            row[2 + k] = m[0] * d[k][0] + m[1] * d[k][1]
        A.append(row)
        rhs.append(m[0] * a[0] + m[1] * a[1])
    x = _solve(A, rhs)
    p = [(x[0], x[1])]
    for k in (1, 2):
        p.append((p[-1][0] + x[2 + k] * d[k][0], p[-1][1] + x[2 + k] * d[k][1]))
    length = sum(max(-(v[0] * (q[0] - r[0]) + v[1] * (q[1] - r[1])) for v in K)
                 for r, q in zip(p, p[1:] + p[:1]))
    return p, length


def _direction(P, i):
    """The start and the direction b - a of segment i [a, b] of P."""
    a, b = _segment(P, i)
    return a, (b[0] - a[0], b[1] - a[1])


def exact_q(K, T, k_facets, t_edges):
    """The exact q (three rational points) of the regular 3-bounce pair with
    q_j on facet k_facets[j] of K and q_{j+1} - q_j normal to edge
    t_edges[j] of T; K and T are lists of rational vertices."""
    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    a, d = zip(*(_direction(K, i) for i in k_facets))
    A, rhs = [], []
    for j, edge in enumerate(t_edges):
        e, k = _direction(T, edge)[1], (j + 1) % 3
        # s_k <e, d_k> - s_j <e, d_j> = <e, a_j - a_k> for q_j = a_j + s_j d_j
        row = [0, 0, 0]
        row[k] += dot(e, d[k])
        row[j] -= dot(e, d[j])
        A.append(row)
        rhs.append(dot(e, (a[j][0] - a[k][0], a[j][1] - a[k][1])))
    s = _solve(A, rhs)
    return [(a[j][0] + s[j] * d[j][0], a[j][1] + s[j] * d[j][1]) for j in range(3)]


# every 3-bounce pair that search_three_bounce finds on the grid and oracle
# benchmark pools whose p touches T inside edges only
PAIRS = [(label, K, T, pair) for pool in ("grid", "oracle")
         for (label, K, T), pairs in zip(corpus.cases(pool), corpus.three_bounce(pool))
         for pair in pairs if all(f.is_edge for f in pair.t_faces)]


def test_pools_have_the_edge_contact_pairs():
    assert len(PAIRS) == 62


@pytest.mark.parametrize("label, K, T, pair", PAIRS,
                         ids=[f"{label}-{k}" for k, (label, *_) in enumerate(PAIRS)])
def test_reported_length_matches_exact_length(label, K, T, pair):
    """The reported float length lies within 1e-13 relative of the exact
    ell_{-K}(p), and the reported p within 1e-12 of T's size of the exact p."""
    assert all(f.is_edge for f in pair.k_faces)
    p, exact = exact_length(_rational(K.vertices.tolist()), _rational(T.vertices.tolist()),
                            [f.index for f in pair.k_faces], [f.index for f in pair.t_faces])
    assert exact > 0
    assert abs(Fraction(pair.length) - exact) <= Fraction(1e-13) * exact
    size = Fraction(max(abs(c) for c in T.vertices.ravel().tolist()))
    for got, want in zip(pair.p.vertices.tolist(), p):
        assert max(abs(Fraction(g) - w) for g, w in zip(got, want)) <= Fraction(1e-12) * size


@pytest.mark.parametrize("label, K, T, pair", PAIRS,
                         ids=[f"{label}-{k}" for k, (label, *_) in enumerate(PAIRS)])
def test_reported_q_matches_exact_q(label, K, T, pair):
    """The reported q lies within 1e-14 of K's size of the exact q."""
    q = exact_q(_rational(K.vertices.tolist()), _rational(T.vertices.tolist()),
                [f.index for f in pair.k_faces], [f.index for f in pair.t_faces])
    size = Fraction(max(abs(c) for c in K.vertices.ravel().tolist()))
    for got, want in zip(pair.q.vertices.tolist(), q):
        assert max(abs(Fraction(g) - w) for g, w in zip(got, want)) <= Fraction(1e-14) * size
