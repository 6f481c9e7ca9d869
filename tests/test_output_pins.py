"""Byte pins of constructed outputs.

The probabilistic digests and strings were recorded from the
Fraction-per-row representation of ``ProbTeam``; any later
representation must serialize the constructions' outputs, and print
conditional probabilities and marginals, exactly as it did.  The
no-go witnesses, the relational constructions, the single-valued and
strong-determinism constructions and the rebinding extensions were
pinned before their block layout, search driver, column binding and
Skolem lookup were each moved into one kernel.  The single-valued and
strong-determinism constructions are pinned on relational models too,
from before each became one call on the model's data in both semantics.
The entailment and separation suites' reports and two ``entail`` reports
are pinned from before every entailment question ran through one
counterexample loop.  The other suites' reports, the ``nogo`` reports and
three ``construct`` outputs are pinned from before the command line ran
each suite and construction from one table and read every ``builtin:``
table through one reader.  The LCM construction and probabilistic
localization are pinned from the command line, on a weighted model and a
witness whose values mix ints and strings, from before both handed int
shares to ``ProbTeam._split`` directly.
"""

import hashlib
import json
import random
from itertools import combinations

import pytest

from teamlogic.cli import main
from teamlogic.constructions import (
    construct_single_valued,
    construct_strong_det,
    construct_weakdet_lambdaindep,
    localize_prob,
    localize_rel,
)
from teamlogic.datasets import load_bundled
from teamlogic.eval_prob import CondProbQuery, cond_prob, marginal
from teamlogic.jsonio import dump_json, model_to_dict, team_to_dict
from teamlogic.models import empirical_domain, from_team
from teamlogic.nogo import exists_strongdet_lambdaindep
from teamlogic.sampling import (
    random_empirical_model,
    random_hv_prob_team,
    random_local_witness,
    random_prob_team,
    random_team,
)
from teamlogic.teams import Team


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


def test_strongdet_witness_json_pinned(ex22):
    assert digest(model_to_dict(exists_strongdet_lambdaindep(ex22))) == (
        "bef7a82710f4d3477aa05b0d76aa31dca4797fc2a6b9eacec797089051411685"
    )


def test_strongdet_witnesses_on_grid_json_pinned():
    # every explainable four-row model over the 2x2 grid with R/G outcomes
    space = [
        (a, b, x, y)
        for a in ("a1", "a2") for b in ("b1", "b2")
        for x in ("R", "G") for y in ("R", "G")
    ]
    witnesses = []
    for rows in combinations(space, 4):
        hv = exists_strongdet_lambdaindep(from_team(Team(empirical_domain(2), rows), "empirical"))
        if hv is not None:
            witnesses.append(model_to_dict(hv))
    assert len(witnesses) == 292
    assert digest({"models": witnesses}) == "83a7838d2b02bcd6040c144ad1b98898e1a240aed2cb69d704d01f6a9a1aa9f0"


@pytest.mark.parametrize(
    ("seed", "arity", "expected"),
    [
        (0, 1, "a6cc31b99cd34a51038179567b4329dc1d350055ac142c51140429914bc4daa2"),
        (3, 1, "ff91cb533ed01b2220dde6aa184b2a3655afa6c220ac63ced582bc0faf5ab7a7"),
        (0, 2, "9ce36f0637871b09880d71a84bdf1278f8c48fc1dd33f798476f1de6a7e9e70c"),
        (1, 2, "f8b1743f4c8bb22fe2678bf21cf4a36a65d6b886ada21fcaea17ba3e945c87d5"),
        (2, 2, "b7fabfb50faea949c266c4c1fbcd5da6d429c8f94857f45fa1764a1bd73e4c89"),
        (4, 3, "6189e166d5cbcaefb2330b5e301d6d8b960b91e2ee8440155b190b793be0b23a"),
    ],
)
def test_localize_rel_json_pinned(seed, arity, expected):
    witness = random_local_witness(random.Random(seed), arity=arity)
    assert digest(model_to_dict(localize_rel(witness))) == expected


@pytest.mark.parametrize(
    ("seed", "arity", "expected"),
    [
        (0, 1, "56002b3d3a8be6991b22119242145ec79034d42409acc31042473fc96c36dcd0"),
        (5, 1, "e089dbe1a6017afb892401f20d684e2ffc1fbad4284ff0946a48680dfe21286e"),
        (0, 2, "9f6a8ec4047c3f36fc2f1af48a49369bd8d43dba721406ff4a9fa53bc2d6b630"),
        (6, 2, "547e88c997b66a2f9a9af2c194989a537df991a2b896703eed6d74f4c825bb21"),
        (0, 3, "6e767d589865fbf232161df4ac1b3f0db499f0eaed255410ff2d9cf7ca9a9fda"),
        (6, 3, "1f623219b8eaab8105db3d24ddc9fcaff0d6e31b360ca125093314fff52d5d76"),
    ],
)
def test_relational_weakdet_lambdaindep_json_pinned(seed, arity, expected):
    model = random_empirical_model(random.Random(seed), arity=arity, component_size=2)
    assert digest(model_to_dict(construct_weakdet_lambdaindep(model))) == expected


def test_single_valued_and_strong_det_json_pinned():
    rng = random.Random(3)
    payloads = []
    for arity in (1, 2, 2, 3):
        model = random_empirical_model(rng, arity=arity, probabilistic=True)
        payloads.append(model_to_dict(construct_single_valued(model)))
        payloads.append(model_to_dict(construct_strong_det(model)))
    assert digest({"models": payloads}) == "0e621815abdb7ee881be6d5d6b67f73f8d87f405de68165e39258a6ddd6542b4"


def test_relational_single_valued_and_strong_det_json_pinned():
    rng = random.Random(3)
    models = [random_empirical_model(rng, arity=arity) for arity in (1, 2, 2, 3)]
    models += [load_bundled(name) for name in ("ex22", "sig", "hardy", "siglambda", "loc6")]
    payloads = []
    for model in models:
        payloads.append(model_to_dict(construct_single_valued(model)))
        payloads.append(model_to_dict(construct_strong_det(model)))
    assert digest({"models": payloads}) == "a53ff0793fd37d9ea001f5e43838f79ee1ac51cb465a8111302d6f2226043ed4"


def test_rebinding_extensions_json_pinned():
    # each operator rebinds the column y in place
    rng = random.Random(13)
    payloads = []
    for _ in range(12):
        team = random_team(rng, ("x", "y", "z"), universe_size=3, max_rows=6)
        payloads.append(team_to_dict(team.generalize("y", (2, "v", 0))))
        payloads.append(team_to_dict(team.skolem_extend("y", lambda s: {s["x"], (s["x"] + s["z"]) % 3})))
        pt = random_prob_team(rng, ("x", "y", "z"), universe_size=3, max_rows=6)
        payloads.append(team_to_dict(pt.uniform_extend("y", ("v", 1))))
    assert digest({"teams": payloads}) == "ff944770a28a56811eaa07425a1ed9102ba589a104dd34a7e256ed8ad3b05fe9"


NOGO_KS_TEXT = "b68e4910f82f55fbd610937a35dec0c3833718977766a048fd3f72d936422745"
NOGO_KS_JSON = "6440741dc371f192d5207ae46d17911861122798b2f6e6c09ecb698b8d233245"


#: (argv, sha256 of stdout) of each pinned report.
PINNED_REPORTS = [
    (["verify", "--suite", "entailments"],
     "68eb28d3b3955a0dd1c2c5a90f6437594b74e9cd6cced55c712aee30c56d1d67"),
    (["verify", "--suite", "entailments", "--json"],
     "dbffd686a6751d53c0584842cb4910ea6a87f737705e43617b1f186c53b7dbbc"),
    (["verify", "--suite", "separations"],
     "46c4eff3b49481cb2099e6f389a347da57d865c8be6902370d62a042e5191692"),
    (["verify", "--suite", "separations", "--json"],
     "d1a8459b28d44fd9b996499d615ef8b200c7b6eed33d725dc06b1b39baa36ee9"),
    (["entail", "--lhs", "dep(m1 l, o1)", "--rhs", "dep(m1, o1)", "--vars", "m1", "o1", "l"],
     "7217587fae4d086feeb665a4c295e9da0f3a9f200817390ea0a19de665b0955c"),
    (["entail", "--lhs", "dep(m1 l, o1)", "--rhs", "dep(m1, o1)", "--vars", "m1", "o1", "l", "--json"],
     "109c463d4bb0e2b4a38d5280d7c139f736ac1757cd1596cd21acc72512fdb881"),
    (["entail", "--lhs", "dep(x, y)", "--rhs", "dep(x z, y)", "--vars", "x", "y", "z"],
     "8ce925c83b5c24c4de8b3445351b52164bde48391e98fd091af7ca8474f76493"),
    (["entail", "--lhs", "dep(x, y)", "--rhs", "dep(x z, y)", "--vars", "x", "y", "z", "--json"],
     "e7fda1a8cef21528467047b34692fcf3cb0a6290eeafda34bd8a9c5c753973d3"),
    (["verify", "--suite", "fig1"],
     "c53f3fac92d79caba8661fea4679b14f0fc18b6077a0a2062f872331c901bf78"),
    (["verify", "--suite", "fig1", "--json"],
     "8b4079a758b5c413c249e5d574047c5132270c7d36eb6087da42ac0f4fb6c9e5"),
    (["verify", "--suite", "fig1", "--samples", "20", "--seed", "3", "--json"],
     "ce6cf124f45eb089e1f9c384c9a5711221ab2966afc91960f3dcdd65808f0805"),
    (["verify", "--suite", "appendix"],
     "60446750964c03d43aa094e405520b12aa66135571345a5300ff887dbeed454c"),
    (["verify", "--suite", "appendix", "--json"],
     "ca27e915e48edf37fdb853c47d2759eeb234186f2c73802c95c25ece351ae53d"),
    (["verify", "--suite", "ks"],
     "aea74c195edf8a3d24a283444bf33899af4c0850f4dff4f0e8612c41789bc5d7"),
    (["verify", "--suite", "ks", "--json"],
     "a0f24e3e915b2c0ef4275b3fc56e5cf33ff447d84f66d44c5b81e2f23bf5a2d5"),
    (["verify", "--suite", "hardy"],
     "a11a248f7c287ae6aa2888ef9fb1f8f13e71c9038204c7f66614229501583dee"),
    (["verify", "--suite", "hardy", "--json"],
     "d9f3a98666acfab390f3967b916e86ee4319ef34620469f43d1d458fa8aa7cb1"),
    (["nogo", "hardy"],
     "c327d283fbbf00e22049afb9e1abfd8f1f8ae9e1d61bbb9fd967f7e8a093771e"),
    (["nogo", "hardy", "--json"],
     "366be87af2eae480437067d3c44ff3d78fd91c3ca6a2c94991a4c4e17b85109b"),
    (["nogo", "ks"], NOGO_KS_TEXT),
    (["nogo", "ks", "--json"], NOGO_KS_JSON),
    # the bundled configuration named explicitly reads as the default
    (["nogo", "ks", "--config", "builtin:cabello18"], NOGO_KS_TEXT),
    (["nogo", "ks", "--config", "builtin:cabello18", "--json"], NOGO_KS_JSON),
] + [
    (["construct", "--model", "builtin:ex22", "--target", target, "--out", "-"], expected)
    for target, expected in (
        ("single-valued", "818a4486ba183868e482fcfef15aa415f946c9712cbf6fd6e96cd585dac1f756"),
        ("strong-det", "bf008a1fa8865200ae6ac11bfc0408dd5560a169e030f2cf7c76b03dcd05feed"),
        ("weakdet-lambda-indep", "f010a05b7e80185fc4fbd26105f56377169b36fdd9a30d3b3d424563b011c84a"),
    )
]


@pytest.mark.parametrize(
    ("argv", "expected"),
    [pytest.param(argv, expected, id=" ".join(argv)) for argv, expected in PINNED_REPORTS],
)
def test_entailment_reports_pinned(argv, expected, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


#: (target, model file, sha256 of the written model) of each pinned
#: construction: values of two kinds, which Python cannot compare natively
PINNED_CONSTRUCTIONS = [
    ("weakdet-lambda-indep",
     {"kind": "empirical", "arity": 1, "domain": ["m1", "o1"],
      "rows": [["a", 0], ["a", "x"], ["b", 1], ["b", "x"]],
      "weights": ["1/6", "1/3", "1/4", "1/4"]},
     "dd49d841925363d260356270468ef12eeb3ad5950ea60b3725f81f2ced340ab1"),
    ("localize",
     {"kind": "hidden", "arity": 1, "domain": ["m1", "o1", "l"],
      "rows": [["a", 0, 0], ["a", 1, "h"], ["b", 0, 0], ["b", "x", "h"]],
      "weights": ["1/4", "1/4", "1/4", "1/4"]},
     "cc7abf11bb6d39a6f22ed937b6c8b00266cb70d7851a721c549c525249a3ce31"),
]


@pytest.mark.parametrize(
    ("target", "payload", "expected"),
    [pytest.param(*case, id=case[0]) for case in PINNED_CONSTRUCTIONS],
)
def test_mixed_kind_constructions_pinned(target, payload, expected, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    out = tmp_path / "hv.json"
    assert main(["construct", "--model", str(model), "--target", target, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
