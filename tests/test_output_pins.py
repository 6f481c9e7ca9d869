"""Byte pins of probabilistic outputs.

The digests and strings below were recorded from the Fraction-per-row
representation of ``ProbTeam``; any later representation must serialize
the constructions' outputs, and print conditional probabilities and
marginals, exactly as it did.
"""

import hashlib
import random

import pytest

from teamlogic.constructions import construct_weakdet_lambdaindep, localize_prob
from teamlogic.eval_prob import CondProbQuery, cond_prob, marginal
from teamlogic.jsonio import dump_json, model_to_dict, team_to_dict
from teamlogic.sampling import random_empirical_model, random_hv_prob_team, random_local_witness


def digest(payload: dict) -> str:
    return hashlib.sha256(dump_json(payload).encode()).hexdigest()


@pytest.mark.parametrize(
    ("seed", "arity", "expected"),
    [
        (0, 1, "689fc7fec0b5b6aa824a5ac437ef1996bfdf6c53db1dfef328f6cb8ee233464e"),
        (5, 1, "3a0d083fdd0e56de925ece7d247e973d22146a1ab2bf6ca86ac04db9090f86ad"),
        (0, 2, "380797b7bcfd3f9a7bf924a91231b68897ae82ef1240fb3ea74b3bbae885d33d"),
        (6, 2, "92da1697f2a18b5a55c0bc30bf22e80ee48199af4b396f55912a34d52848a3a2"),
        (0, 3, "443547098bace73b1f726564ed1b226c747c69efd9d25a5707ea9bdca91bf9aa"),
        (6, 3, "43041505d9cdfe33ddfabf137052d6f08833779b96c81a348125cf17b65ecc8a"),
    ],
)
def test_weakdet_lambdaindep_json_pinned(seed, arity, expected):
    model = random_empirical_model(
        random.Random(seed), arity=arity, component_size=2, probabilistic=True
    )
    assert digest(model_to_dict(construct_weakdet_lambdaindep(model))) == expected


@pytest.mark.parametrize(
    ("seed", "arity", "expected"),
    [
        (0, 1, "e608532ec9b032da2cda2353831aeb6dbed7d1b3dab6080292c20ac9b4286c3b"),
        (5, 1, "37e658cb0f38e257e36b2de778b5acc8319165c03e25fa10ff7e7c3d14702dd7"),
        (0, 2, "81ba5040ca10062c1d7af739dc3cd8e0ba7b705ef92f27b7f4f3d671b71c28de"),
        (1, 2, "331d3533a79bf7e514eb659a17d8bb9e05a5ccecc8dd75321c1b9eac1a5247a7"),
    ],
)
def test_localize_prob_json_pinned(seed, arity, expected):
    witness = random_local_witness(random.Random(seed), arity=arity, probabilistic=True)
    assert digest(model_to_dict(localize_prob(witness))) == expected


RANDOM_TEAMS_DIGEST = "08f60f60902674acf497b318e4873c44f81f091df84ed687da024ce8921b9766"


def test_random_prob_team_json_pinned():
    rng = random.Random(7)
    payloads = [team_to_dict(random_hv_prob_team(rng, max_rows=8)) for _ in range(20)]
    assert digest({"teams": payloads}) == RANDOM_TEAMS_DIGEST


def test_cond_prob_and_marginal_strings_pinned(pt1):
    queries = [
        CondProbQuery(("z",), (0,), ("x", "y"), (0, 0)),
        CondProbQuery(("w",), (1,), ("z",), (1,)),
        CondProbQuery(("x", "y"), (1, 1), ("w",), (1,)),
        CondProbQuery(("z", "w"), (0, 1), ()),
    ]
    assert [str(cond_prob(pt1, q)) for q in queries] == ["4/7", "2/3", "1/6", "1/5"]
    events = [(("x",), (0,)), (("x", "y"), (0, 0)), (("z", "w"), (1, 1)), (("w",), (7,))]
    assert [str(marginal(pt1, v, a)) for v, a in events] == ["4/5", "7/10", "2/5", "0"]
    rng = random.Random(11)
    found = []
    for _ in range(10):
        pt = random_hv_prob_team(rng, max_rows=8)
        found.append(str(marginal(pt, ("m1",), ("a0",))))
        found.append(str(cond_prob(pt, CondProbQuery(("o1",), (0,), ("l",), ("lam0",)))
                         if marginal(pt, ("l",), ("lam0",)) else "-"))
    assert found == [
        "29/60", "7/22", "7/10", "21/46", "1", "0", "1", "1", "19/30", "0",
        "59/120", "37/85", "3/40", "41/58", "109/120", "0", "119/120", "4/49", "43/120", "11/39",
    ]
