"""Each corpus set keeps its size and the SHA-256 of its vertex bytes (K then
T, case by case), and its bodies and cached results stay read-only tuples:
a change that re-seeds, shrinks, reorders or mutates a set fails here."""

import hashlib

import pytest

import corpus

PINNED = {
    "grid": (18, "e753bd856f280334434d98cbf554ebf8b4dc03145c91e173c2fc0d077a300db0"),
    "oracle": (34, "e8ae38f4a2b25f62373d9404ef151743ed3e6715e0e460ed4e195ef4804fa523"),
    "ngon": (5, "71395a0c75ef176b169f18756846a90f31c210cf64e947a95d562c43c0c2600c"),
    "fixtures": (7, "dd5e2d06f4342994ddea483452225483f65ff08faca3529c78c3cc622c94fd7a"),
    "identity": (139, "84f4e5d67659d87249d549f9a7fb6324469035c7173b45c3de62c59f5c70e0fe"),
    "chord": (140, "f51d6ac530227cc9c57f730f34d965105c01c8059b22afad12504049edc06ff4"),
    "contact": (161, "fbef73d6d9522e1df9548157f5105f28923af41e5703fec7e79f2833c7da4c32"),
    "search": (127, "bddef9fb2a390fbdea9ade02dcbd2e36e8048af8b86286a29ba4bd65edfb8b8f"),
    "inbody": (307, "11bd1074b76295af36e75a79d152f52c33ac33199633b9fa8fd1842ef9737c50"),
    "brute": (100, "bd43457837662639e3bf7da8cdafe30b1b693507a9a638be4bc74a5a93f93cf5"),
    "certify": (10, "3c013de48033f2d853a5e99c8b90c32f5a44c7395551edc73265fd0ea349005b"),
    "table": (221, "78803c2c009a1d97640b88b37177ea04008b3456b69eef49d8bce92a0cd515c7"),
}
SEARCHED = [("two_bounce", "identity"), ("three_bounce", "identity"),  # those the tests read
            ("three_bounce", "search"), ("two_bounce", "certify"), ("three_bounce", "certify"),
            ("three_bounce", "grid"), ("three_bounce", "oracle")]


@pytest.mark.parametrize("name", corpus.BUILDERS)
def test_set_keeps_its_members(name):
    cases = corpus.cases(name)
    digest = hashlib.sha256()
    for _, K, T in cases:
        digest.update(K.vertices.tobytes() + T.vertices.tobytes())
    assert (len(cases), digest.hexdigest()) == PINNED[name]
    assert isinstance(cases, tuple) and corpus.cases(name) is cases
    assert not any(arr.flags.writeable for _, K, T in cases for P in (K, T)
                   for arr in (P.vertices, P.normals, P.offsets))


@pytest.mark.parametrize("search, name", SEARCHED)
def test_cached_results_are_read_only_tuples(search, name):
    results = getattr(corpus, search)(name)
    assert isinstance(results, tuple) and len(results) == len(corpus.cases(name))
    assert all(isinstance(pairs, tuple) for pairs in results)
    assert not any(arr.flags.writeable for pairs in results for pair in pairs
                   for arr in (pair.q, pair.p))
    assert getattr(corpus, search)(name) is results
