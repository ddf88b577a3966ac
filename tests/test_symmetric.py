"""The minimum against a closed form, for centrally symmetric pairs.

For centrally symmetric K and T centred at the origin, the shortest closed
(K, T)-Minkowski billiard trajectory has length c(K x T) = 4 max{r : r T° ⊆ K}
(Artstein-Avidan, Karasev & Ostrover, "From symplectic measurements to the
Mahler conjecture", Duke Math. J. 2014).  The support of T° is the gauge of
T, so r T° ⊆ K holds facet by facet of K, and the value is
4 min_i offsets_K[i] / gauge_T(normals_K[i]).  With T = K° it is exactly 4.
The closed form needs no LP and no grid, so it checks the searches on bodies
of any size, where brute_force_min stops at 16 facets.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkbill.bounce2 import search_two_bounce
from minkbill.bounce3 import search_three_bounce
from minkbill.fixtures import regular_ngon
from minkbill.geom import polar
from minkbill.verify import certify

from references import sorted_pairs, symmetric_polygon


def closed_form(K, T):
    """4 max{r : r T° ⊆ K} for K and T centred at their centres of symmetry."""
    gauge = (K.normals @ T.normals.T / T.offsets).max(axis=1)
    return 4.0 * float((K.offsets / gauge).min())


def candidates(K, T):
    return sorted_pairs([*search_two_bounce(K, T), *search_three_bounce(K, T)])


def assert_minimum_is_closed_form(K, T):
    want = closed_form(K, T)
    found = candidates(K, T)
    assert found
    assert found[0].length == pytest.approx(want, rel=1e-12, abs=0)
    assert certify(K, T, found[0]).certified
    for pair in found:  # no certified candidate is shorter
        assert pair.length >= want * (1 - 1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_k_against_its_polar_is_four(seed):
    """c(K x K°) = 4 for symmetric 4- to 16-gons K."""
    rng = np.random.default_rng(seed)
    K = symmetric_polygon(rng, 2 + seed % 7)
    T = polar(K)
    assert closed_form(K, T) == pytest.approx(4.0, rel=1e-12, abs=0)
    assert candidates(K, T)[0].length == pytest.approx(4.0, rel=1e-12, abs=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(2, 32))
def test_symmetric_pair_minimum_is_closed_form(seed, half_k, half_t):
    """Centred symmetric pairs, K a 4- to 16-gon and T a 4- to 64-gon: the
    search minimum is the closed form, and no candidate is shorter."""
    rng = np.random.default_rng(seed)
    assert_minimum_is_closed_form(symmetric_polygon(rng, half_k),
                                  symmetric_polygon(rng, half_t))


@pytest.mark.parametrize("half_k, n_t", [(4, 128), (5, 256)])
def test_large_t_minimum_is_closed_form(half_k, n_t):
    """T the regular 128- or 256-gon against a symmetric 8- or 10-gon K."""
    K = symmetric_polygon(np.random.default_rng(n_t), half_k)
    assert_minimum_is_closed_form(K, regular_ngon(n_t))


@pytest.mark.parametrize("seed", range(4))
def test_large_k_minimum_is_closed_form(seed):
    """K a symmetric 48-gon (8,096 spanning facet triples) against a
    symmetric 8-gon T: the minimum is the closed form, and no 2- or 3-bounce
    candidate is shorter."""
    rng = np.random.default_rng(seed)
    assert_minimum_is_closed_form(symmetric_polygon(rng, 24),
                                  symmetric_polygon(rng, 4))
