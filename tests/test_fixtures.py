import json

import numpy as np
import pytest

from minkbill.bounce3 import search_three_bounce
from minkbill.fixtures import (UnknownFixture, example_g_curve, fixture_names,
                               load, obtuse_triangle_100, regular_ngon)
from minkbill.geom import (ConvexPolytope2, ell_length, find_face, in_f,
                           normal_cone, positively_spans)
from minkbill.obtuse import largest_angle


def test_all_registered_fixtures_load():
    for name in fixture_names():
        fx = load(name)
        assert fx.K.n >= 3 and fx.T.n >= 3


@pytest.mark.parametrize("name", ["exampleB", "exampleC"])
def test_smooth_body_examples_are_refused(name):
    with pytest.raises(UnknownFixture) as err:
        load(name)
    assert "out of scope" in str(err.value)


def test_unknown_name():
    with pytest.raises(UnknownFixture) as err:
        load("exampleZ")
    assert "exampleZ" in str(err.value)


def test_example_f_aux_expectations():
    fx = load("exampleF_aux")
    assert ell_length(fx.T, fx.curves["q"]) == pytest.approx(4.0, abs=1e-12)


def test_example_g_lengths():
    fx = load("exampleG")
    for a, expect in ((0.0, 4.0), (0.25, 3.0), (0.5, 2.0)):
        assert ell_length(fx.T, example_g_curve(a)) == pytest.approx(
            expect, abs=1e-12)
    # the family interpolates linearly: length 4 - 4a
    for a in np.linspace(0.05, 0.45, 5):
        assert ell_length(fx.T, example_g_curve(a)) == pytest.approx(4 - 4 * a)


def test_example_e_translatable():
    fx = load("exampleE")
    q = fx.curves["q"]
    assert not in_f(fx.K, q)
    shifted = q + np.array([0.0, 0.5])
    assert all((fx.K.normals @ v - fx.K.offsets).max() < -1e-9 for v in shifted)


def test_example_d_normals_not_spanning():
    fx = load("exampleD")
    gens = []
    for v in fx.curves["q"]:
        gens.extend(normal_cone(fx.K, find_face(fx.K, v)).generators)
    assert not positively_spans(gens)


def test_example_a_has_no_regular_three_bounce():
    fx = load("exampleA")
    assert len(search_three_bounce(fx.K, fx.T)) == 0


def test_obtuse_triangle_angle():
    assert np.degrees(largest_angle(obtuse_triangle_100())) > 100.0


def test_regular_ngon():
    gon = regular_ngon(16, radius=2.0)
    assert gon.n == 16
    assert np.allclose(np.hypot(*gon.vertices.T), 2.0)


def test_json_roundtrip_is_stable():
    for name in fixture_names():
        fx = load(name)
        for body in (fx.K, fx.T):
            first = json.dumps(body.to_json_obj(), sort_keys=True)
            again = ConvexPolytope2.from_json_obj(json.loads(first))
            second = json.dumps(again.to_json_obj(), sort_keys=True)
            assert first == second
