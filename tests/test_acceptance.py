"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (rational arithmetic, set equality); there are no
numeric tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import subprocess
import sys
from itertools import combinations

from teamlogic.constructions import (
    construct_single_valued,
    construct_strong_det,
    construct_weakdet_lambdaindep,
    localize_prob,
    localize_rel,
)
from teamlogic.datasets import load_bundled
from teamlogic.entailment import verify_property_entailments, verify_separations
from teamlogic.eval_prob import eval_prob
from teamlogic.eval_rel import eval_atom_rel, eval_rel
from teamlogic.formulas import NCC, is_downward_closed, parse
from teamlogic.models import (
    empirical_domain,
    empirically_equivalent,
    from_team,
    induced_empirical,
    verify_fig1_commutes,
)
from teamlogic.nogo import (
    cabello_config,
    check_hardy_conditions,
    exists_local_lambdaindep,
    exists_strongdet_lambdaindep,
    ks_colorable,
    ks_team,
    noncontextual_extension,
    parity_obstruction,
)
from teamlogic.properties import PropertyName as P, check_property
from teamlogic.sampling import (
    random_empirical_model,
    random_hv_prob_team,
    random_local_witness,
    random_prob_team,
)
from teamlogic.teams import Team
from teamlogic.verify_appendix import verify_appendix


def _report(number: int, label: str, ok: bool, detail: str = ""):
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_paper_example_verdicts():
    sig = load_bundled("sig")
    siglam = load_bundled("siglambda")
    loc6 = load_bundled("loc6")
    ex22 = load_bundled("ex22")
    checks = [
        check_property(sig, P.WEAK_DET_E),
        not check_property(sig, P.STRONG_DET_E),
        not eval_rel(sig.team, parse("o1 _||_{m1} m2")),
        check_property(siglam, P.WEAK_DET_H),
        check_property(siglam, P.OUT_INDEP_H),
        not check_property(siglam, P.PAR_INDEP_H),
        not check_property(siglam, P.STRONG_DET_H),
        not check_property(loc6, P.LOC_H),
        check_property(loc6, P.OUT_INDEP_H),
        check_property(loc6, P.LAMBDA_INDEP_H),
        not check_property(loc6, P.PAR_INDEP_H),
        check_property(ex22, P.NO_SIG_E),
        not check_property(ex22, P.WEAK_DET_E),
    ]
    _report(1, "paper-example verdicts, exact", all(checks),
            f"{sum(checks)}/{len(checks)} verdicts")


def test_criterion_02_theorem_3_4_separations():
    rep = verify_separations(max_rows=7, universe_size=2)
    _report(2, "probabilistic/relational entailment separations", rep.ok,
            "pt1, rt2, bounded search universe 2 <= 7 rows")


def test_criterion_03_compare_semantics_suite():
    from teamlogic.formulas import Dep, Indep, conjoin

    rng = random.Random(20260809)
    variables = ("x", "y", "z", "w")
    pairs = 10_000
    forward_violations = 0
    equivalence_violations = 0
    dep_only_seen = 0
    for _ in range(pairs):
        pt = random_prob_team(rng, variables, universe_size=2, max_rows=5)
        atoms = []
        dep_only = rng.random() < 0.45
        for _ in range(rng.randint(1, 3)):
            xs = tuple(rng.sample(variables, rng.randint(1, 2)))
            ys = tuple(rng.sample(variables, rng.randint(1, 2)))
            if dep_only or rng.random() < 0.5:
                atoms.append(Dep(xs, ys))
            else:
                atoms.append(Indep(xs, tuple(rng.sample(variables, rng.randint(0, 2))), ys))
        f = conjoin(atoms)
        prob = eval_prob(pt, f)
        rel = eval_rel(pt.support(), f)
        if prob and not rel:
            forward_violations += 1
        if is_downward_closed(f):
            dep_only_seen += 1
            if prob != rel:
                equivalence_violations += 1
    ok = forward_violations == 0 and equivalence_violations == 0
    _report(3, "probabilistic truth implies relational truth; equivalence on "
               "dependence-only formulas", ok,
            f"{pairs} pairs, {dep_only_seen} dependence-only, "
            f"{forward_violations}+{equivalence_violations} violations")


def test_criterion_04_property_entailments():
    rep = verify_property_entailments(
        arity=2, component_size=2, max_rows=4, prob_samples=300, seed=42
    )
    _report(4, "five property entailments, exhaustive arity-2 sweep", rep.ok,
            f"{rep.teams_checked} teams, {len(rep.counterexamples)} counterexamples, "
            f"siglambda witness {'ok' if rep.ok else 'bad'}")


def test_criterion_05_constructions():
    rng = random.Random(5150)
    failures = []
    models = []
    for i in range(110):
        probabilistic = i % 2 == 1
        models.append(random_empirical_model(
            rng,
            arity=rng.randint(1, 3),
            component_size=rng.randint(1, 3),
            probabilistic=probabilistic,
        ))
    for i, model in enumerate(models):
        sv = construct_single_valued(model)
        sd = construct_strong_det(model)
        wd = construct_weakdet_lambdaindep(model)
        if not (check_property(sv, P.SING_VAL_H) and check_property(sv, P.LAMBDA_INDEP_H)
                and empirically_equivalent(model, sv)):
            failures.append((i, "single-valued"))
        if not (check_property(sd, P.STRONG_DET_H) and empirically_equivalent(model, sd)):
            failures.append((i, "strong-det"))
        if not (check_property(wd, P.WEAK_DET_H) and check_property(wd, P.LAMBDA_INDEP_H)
                and empirically_equivalent(model, wd)):
            failures.append((i, "weakdet-lambda-indep"))
    localizations = 0
    for i in range(25):
        witness = random_local_witness(rng)
        z = localize_rel(witness)
        if not (check_property(z, P.STRONG_DET_H) and check_property(z, P.LAMBDA_INDEP_H)
                and empirically_equivalent(induced_empirical(witness), z)):
            failures.append((i, "localize_rel"))
        localizations += 1
    for i in range(12):
        witness = random_local_witness(rng, probabilistic=True)
        z = localize_prob(witness)
        if not (check_property(z, P.STRONG_DET_H) and check_property(z, P.LAMBDA_INDEP_H)
                and empirically_equivalent(induced_empirical(witness), z)):
            failures.append((i, "localize_prob"))
        localizations += 1
    _report(5, "construction outputs satisfy advertised properties and exact "
               "empirical equivalence", not failures,
            f"{len(models)} random models, {localizations} localizations, "
            f"{len(failures)} failures")


def test_criterion_06_fig1_commutativity():
    rng = random.Random(61803)
    samples = 1000
    bad = sum(0 if verify_fig1_commutes(random_hv_prob_team(rng)) else 1
              for _ in range(samples))
    _report(6, "collapse/projection commutativity, exact", bad == 0,
            f"{samples} random probabilistic hidden-variable teams, {bad} failures")


def _brute_force_strongdet_lambdaindep(model, lambda_size=2):
    """Independent bounded witness search: every assignment of nonempty
    hidden-value subsets to rows, checked by the formula evaluator."""
    from itertools import product as iproduct

    team = model.team
    lams = [f"bl{k}" for k in range(lambda_size)]
    subsets = [c for size in range(1, lambda_size + 1)
               for c in combinations(lams, size)]
    strongdet = parse("dep(m1 l, o1) & dep(m2 l, o2)")
    lamindep = parse("m1 m2 _||_ l")
    for assignment in iproduct(subsets, repeat=len(team.rows)):
        rows = [row + (c,) for row, image in zip(team.rows, assignment) for c in image]
        extended = Team(team.domain + ("l",), rows)
        if eval_rel(extended, strongdet) and eval_rel(extended, lamindep):
            return extended
    return None


def test_criterion_07_hardy_and_agreement_sweep():
    hardy = load_bundled("hardy")
    hardy_ok = (
        check_hardy_conditions(hardy) == []
        and exists_strongdet_lambdaindep(hardy) is None
        and exists_local_lambdaindep(hardy) is None
    )
    proc = subprocess.run(
        [sys.executable, "-m", "teamlogic.cli", "nogo", "hardy"],
        capture_output=True, text=True,
    )
    cli_ok = proc.returncode == 0 and "model exists: False" in proc.stdout

    space = [
        (a, b, x, y)
        for a in ("a1", "a2") for b in ("b1", "b2")
        for x in ("R", "G") for y in ("R", "G")
    ]
    domain = empirical_domain(2)
    checked = disagreements = positives = validated = cross_checked = bad = 0
    for size in range(1, 9):
        for rows in combinations(space, size):
            model = from_team(Team(domain, rows), "empirical")
            a = exists_strongdet_lambdaindep(model)
            b = exists_local_lambdaindep(model)
            if (a is None) != (b is None):
                disagreements += 1
            checked += 1
            if a is not None:
                positives += 1
                if positives % 40 == 0:
                    validated += 1
                    if not (check_property(a, P.STRONG_DET_H)
                            and check_property(a, P.LAMBDA_INDEP_H)
                            and check_property(a, P.LOC_H)
                            and empirically_equivalent(model, a)):
                        bad += 1
            elif checked % 1500 == 0 and size <= 6:
                cross_checked += 1
                if _brute_force_strongdet_lambdaindep(model) is not None:
                    bad += 1
    ok = hardy_ok and cli_ok and disagreements == 0 and bad == 0
    _report(7, "hardy no-go and local/strong-det agreement sweep", ok,
            f"{checked} models <= 8 rows, {positives} explainable, "
            f"{validated} witnesses validated, {cross_checked} negatives "
            f"cross-checked by brute force, {disagreements} disagreements")


def test_criterion_08_kochen_specker():
    cfg = cabello_config()
    problems = cfg.validate(require_double_cover=True)
    coloring = ks_colorable(cfg)
    team = ks_team(cfg)
    ncc_verdict = eval_atom_rel(team, NCC(("m1", "m2", "m3", "m4")))
    extension = noncontextual_extension(cfg)
    agree = (coloring is None) and (not ncc_verdict) and (extension is None)
    ok = not problems and parity_obstruction(cfg) and agree
    _report(8, "18-vector configuration: validation, no coloring, ncc fails, "
               "no non-contextual extension", ok,
            "orthogonality exact, 4^9-bounded search, three formulations agree")


def test_criterion_09_appendix_equivalences():
    rep = verify_appendix(max_rows=3)
    detail = "; ".join(f"{label}: {teams} teams" for label, teams, _ in rep.cases)
    _report(9, "extended atoms agree with their dependence-logic defining "
               "formulas, exhaustively", rep.ok, detail)


def test_criterion_10_cli_determinism():
    commands = (
        ("check", "--model", "builtin:loc6", "--property", "locality", "--json"),
        ("nogo", "ks", "--json"),
        ("verify", "--suite", "separations", "--json"),
        ("verify", "--suite", "fig1", "--samples", "40", "--seed", "11", "--json"),
        ("construct", "--model", "builtin:ex22", "--target", "weakdet-lambda-indep",
         "--out", "-"),
        ("entail", "--lhs", "dep(m1 l, o1)", "--rhs", "dep(m1, o1)",
         "--vars", "m1", "o1", "l"),
    )
    mismatches = 0
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "teamlogic.cli", *argv],
                capture_output=True,
            )
            for _ in range(2)
        ]
        if runs[0].stdout != runs[1].stdout or runs[0].returncode != runs[1].returncode:
            mismatches += 1
    _report(10, "CLI output is byte-identical across executions", mismatches == 0,
            f"{len(commands)} commands run twice")
