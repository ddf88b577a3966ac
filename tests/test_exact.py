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

Vertex contacts of p and the 2-bounce face tuples are not covered yet; the
shortest 2-bounce length is checked against the closed-form 2-gon minimum
of references.two_gon_minimum instead.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from minkbill.bounce2 import search_two_bounce
from minkbill.fixtures import load, regular_ngon
from minkbill.geom import EPS_GEO

import corpus
from conftest import polytopes
from references import two_gon_minimum


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
    for got, want in zip(pair.p.tolist(), p):
        assert max(abs(Fraction(g) - w) for g, w in zip(got, want)) <= Fraction(1e-12) * size


@pytest.mark.parametrize("label, K, T, pair", PAIRS,
                         ids=[f"{label}-{k}" for k, (label, *_) in enumerate(PAIRS)])
def test_reported_q_matches_exact_q(label, K, T, pair):
    """The reported q lies within 1e-14 of K's size of the exact q."""
    q = exact_q(_rational(K.vertices.tolist()), _rational(T.vertices.tolist()),
                [f.index for f in pair.k_faces], [f.index for f in pair.t_faces])
    size = Fraction(max(abs(c) for c in K.vertices.ravel().tolist()))
    for got, want in zip(pair.q.tolist(), q):
        assert max(abs(Fraction(g) - w) for g, w in zip(got, want)) <= Fraction(1e-14) * size


def _weak_chord(K, T):
    """Whether (K, T) is exampleA, whose shortest 2-gon, a vertical chord
    from the apex of K, has its one chord on a ray of T's normal cones: the
    side LP stops at an end of its slacked interval, x = -EPS_GEO, where the
    length is 2 + 2 EPS_GEO."""
    fx = load("exampleA")
    return all(np.array_equal(P.vertices, Q.vertices) for P, Q in ((K, fx.K), (T, fx.T)))


def _assert_two_gon_minimum(K, T):
    got, want = search_two_bounce(K, T).length[0], two_gon_minimum(K, T)
    if _weak_chord(K, T):
        assert 0 < got - want <= 2 * EPS_GEO * want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", ["fixtures", "identity", "search", "brute", "certify",
                                  "grid", "oracle", "ngon"])
def test_shortest_two_bounce_is_the_two_gon_minimum(name):
    """The shortest pair of search_two_bounce has the least ell_T length of
    the closed 2-gons that cannot be translated into the interior of K,
    to 1e-12 relative (exampleA to 2 EPS_GEO, see _weak_chord), on the
    corpus sets whose bodies sit near the origin at unit scale, the 57 pool
    instances among them.  The scaled and moved sets are left out: bodies
    of size 2^-12 moved by 1e3 round their lengths to about 1e-11 relative,
    and the scaled chord set is test_scaled_two_bounce_misses_the_two_gon_minimum."""
    for _, K, T in corpus.cases(name):
        _assert_two_gon_minimum(K, T)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 16, 64, 256])
def test_regular_two_bounce_is_the_two_gon_minimum(n):
    """As above for a regular n-gon K against the regular (n + 1)-gon."""
    _assert_two_gon_minimum(regular_ngon(n), regular_ngon(n + 1))


@settings(max_examples=60, deadline=None)
@given(polytopes(), polytopes())
def test_random_two_bounce_is_the_two_gon_minimum(K, T):
    """As above for Hypothesis pairs of 3- to 8-gons."""
    _assert_two_gon_minimum(K, T)


@pytest.mark.xfail(strict=True, reason="ROADMAP items 15 and 1: the absolute EPS_CERT "
                   "rejects the true minimum of bodies scaled up by 2^k, and bodies moved "
                   "2^31 from the origin lose it to rounding")
def test_scaled_two_bounce_misses_the_two_gon_minimum():
    """The scaled bodies of the chord set and the far ones of the contact
    set, where the shortest 2-bounce pair is up to 45 % longer than the
    2-gon minimum, or missing."""
    for label, K, T in corpus.cases("contact"):
        if label in ("scaled", "far"):
            found = search_two_bounce(K, T).length
            assert len(found) and found[0] == pytest.approx(two_gon_minimum(K, T), rel=1e-12)
