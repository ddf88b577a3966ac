"""The role swap as a second search of the same minimum.

The symplectic map (q, p) -> (p, -q) takes K x T to T x (-K), so the
shortest closed (K, T)-Minkowski billiard trajectory and the shortest
(T, -K) one have the same length, and a shortest (T, -K) pair (q', p')
maps back to the pair q = -roll(p', 1), p = q' on (K, T)
(Artstein-Avidan & Ostrover, "A Brunn-Minkowski inequality for symplectic
capacities of convex domains", IMRN 2008).  Neither side needs the grid
oracle or a closed form, so the check reaches bodies of any size and any
symmetry.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from minkbill.bounce2 import search_two_bounce
from minkbill.bounce3 import search_three_bounce
from minkbill.pairs import make_pair
from minkbill.randgen import random_instance
from minkbill.verify import certify

from conftest import polytopes
from references import faces_of, rows, sorted_pairs


def shortest(K, T):
    found = sorted_pairs([*rows(search_two_bounce(K, T)), *rows(search_three_bounce(K, T))])
    assert found
    return found[0]


def assert_role_swap(K, T):
    """The two minima agree to 1e-12 relative, and the mapped-back shortest
    (T, -K) pair certifies on (K, T)."""
    direct, swapped = shortest(K, T), shortest(T, K.reflect())
    assert swapped.length[0] == pytest.approx(direct.length[0], rel=1e-12, abs=0)
    # -K keeps the vertex order of K, so face i of -K is face i of K negated
    k_faces, t_faces = faces_of(swapped)
    back = make_pair(K, T, -np.roll(swapped.p[0], 1, axis=0), swapped.q[0],
                     t_faces[-1:] + t_faces[:-1], k_faces)
    assert back is not None and certify(K, T, back).certified[0]
    assert back.length[0] == pytest.approx(direct.length[0], rel=1e-9, abs=0)


@pytest.mark.parametrize("seed", range(30))
def test_role_swap_on_seeded_pairs(seed):
    rng = np.random.default_rng(seed)
    assert_role_swap(*random_instance(rng, int(rng.integers(3, 10)),
                                      int(rng.integers(3, 10))))


@settings(max_examples=30, deadline=None)
@given(polytopes(3, 9), polytopes(3, 9))
def test_role_swap_on_hypothesis_pairs(K, T):
    assert_role_swap(K, T)


def test_role_swap_with_a_large_body():
    """A 96-gon K against an 8-gon T: the direct 3-bounce search grows
    72,656 spanning triples of K in T, the swapped one 36 of T in -K."""
    assert_role_swap(*random_instance(np.random.default_rng(0), 96, 8))
