"""Command-line surface.

Subcommands::

    teamlogic eval --team FILE --formula TEXT [--prob] [--budget B]
    teamlogic check --model FILE --property NAME [--budget B]
    teamlogic construct --model FILE --target TARGET --out FILE [--budget B]
    teamlogic entail --lhs TEXT --rhs TEXT --vars X [X ...] [--universe K]
                     [--max-rows R] [--budget B]
    teamlogic nogo hardy
    teamlogic nogo ks [--config FILE] [--budget B]
    teamlogic nogo exists --model FILE --target {strong-det+lambda|local+lambda}
                          [--out FILE] [--budget B]
    teamlogic verify --suite {fig1|appendix|separations|entailments|ks|hardy}
                     [--samples N] [--seed S]

``--budget B`` caps both the rows and the states of a search
(:class:`~teamlogic.eval_rel.EvalBudget`), and ``nogo exists --out`` writes
the witness model to a file, which the report names in its place;
``--out -`` writes the model to stdout, and so refuses ``--json``.  Every
file argument accepts ``builtin:NAME`` for the bundled tables (ex22, sig,
siglambda, loc6, pt1, rt2, hardy, cabello18), through the one reader
:func:`teamlogic.jsonio.load`; ``--config`` defaults to ``builtin:cabello18``.
The suites and constructions are the library's, looked up in :data:`SUITES`
and :data:`CONSTRUCT_TARGETS`.  Verdicts go into the report, never the exit
code: 0 means a verdict was computed, 2 an input problem, 3 a budget was
exceeded.  Output is byte-deterministic for fixed inputs and seed; every
subcommand's ``--json`` emits a versioned machine-readable report.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from .errors import BudgetExceededError, InvalidArgumentError, TeamLogicError
from .eval_prob import eval_prob
from .eval_rel import EvalBudget, eval_rel
from .formulas import parse
from .jsonio import dump_json, load_model, load_team, model_to_dict, value_to_json, write_path
from .models import HVModel
from .properties import check_property, property_from_cli_name
from .teams import ProbTeam

REPORT_SCHEMA = "teamlogic-report/1"

#: Each construction target's builder in :mod:`teamlogic.constructions`;
#: a relational model's ``localize`` runs ``localize_rel`` instead.
CONSTRUCT_TARGETS = {
    "single-valued": "construct_single_valued",
    "strong-det": "construct_strong_det",
    "weakdet-lambda-indep": "construct_weakdet_lambdaindep",
    "localize": "localize_prob",
}
EXISTS_TARGETS = ("strong-det+lambda", "local+lambda")

#: Each suite's runner (module and function, imported when the suite
#: runs), the ``verify`` flags it reads, each passed on as the keyword of
#: its name, and its report's extra JSON fields, by report attribute.
SUITES = {
    "fig1": ("models", "verify_fig1", ("samples", "seed"), {"samples": "samples"}),
    "appendix": ("verify_appendix", "verify_appendix", (), {}),
    "separations": ("entailment", "verify_separations", (), {}),
    "entailments": ("entailment", "verify_property_entailments", ("seed",), {"teams": "teams_checked"}),
    "ks": ("nogo", "verify_ks", (), {}),
    "hardy": ("nogo", "verify_hardy", (), {}),
}


def _emit(args, report: dict, text_lines: list[str]) -> int:
    report["schema"] = REPORT_SCHEMA
    sys.stdout.write(dump_json(report) if args.json else "".join(f"{line}\n" for line in text_lines))
    return 0


def _budget(args) -> EvalBudget | None:
    b = args.budget
    return None if b is None else EvalBudget(max_rows=b, memo_limit=b)


def cmd_eval(args) -> int:
    data = load_team(args.team)
    formula = parse(args.formula)
    budget = _budget(args)
    if args.prob:
        if not isinstance(data, ProbTeam):
            raise InvalidArgumentError("--prob needs a team with weights")
        verdict = eval_prob(data, formula, budget)
        semantics = "probabilistic"
    else:
        verdict = eval_rel(data.support(), formula, budget)
        semantics = "relational"
    return _emit(
        args,
        {"command": "eval", "formula": args.formula, "semantics": semantics, "verdict": verdict},
        [f"{semantics} verdict: {str(verdict).lower()}"],
    )


def cmd_check(args) -> int:
    model = load_model(args.model)
    prop = property_from_cli_name(args.property, model.kind)
    verdict = check_property(model, prop, budget=_budget(args))
    return _emit(
        args,
        {
            "command": "check",
            "property": prop.value,
            "model_kind": model.kind,
            "arity": model.arity,
            "verdict": verdict,
        },
        [f"{prop.value}: {str(verdict).lower()}"],
    )


def cmd_construct(args) -> int:
    from . import constructions

    model = load_model(args.model)
    if args.target == "localize" and not isinstance(model, HVModel):
        raise InvalidArgumentError("localize needs a hidden-variable model as input")
    if args.target == "localize" and not model.probabilistic:
        result = constructions.localize_rel(model, _budget(args))
    elif args.budget is not None:
        what = "probabilistic localization" if args.target == "localize" else args.target
        raise InvalidArgumentError(f"--budget applies to relational localization only, not {what}")
    else:
        result = getattr(constructions, CONSTRUCT_TARGETS[args.target])(model)
    write_path(args.out, dump_json(model_to_dict(result)))
    lam = result.lambda_values()
    return _emit(
        args,
        {"command": "construct", "target": args.target, "lambda_size": len(lam), "out": args.out},
        [f"constructed {args.target} model with {len(lam)} hidden values -> {args.out}"],
    )


def cmd_entail(args) -> int:
    from .entailment import entailment_transfers, find_rel_counterexample

    lhs, rhs = parse(args.lhs), parse(args.rhs)
    team = find_rel_counterexample(
        lhs,
        rhs,
        tuple(args.vars),
        universe_size=args.universe,
        max_rows=args.max_rows,
        budget=_budget(args),
    )
    transfers = entailment_transfers(lhs, rhs)
    rows = None if team is None else [list(map(value_to_json, row)) for row in team.rows]
    if rows is None:
        lines = [
            f"no counterexample within universe {args.universe}, <= {args.max_rows} rows",
            "verdict transfers to probabilistic semantics (dependence-only formulas)"
            if transfers
            else "bounded relational verdict only; not a proof",
        ]
    else:
        lines = [f"counterexample with {len(rows)} rows:"] + [f"  {r}" for r in rows]
    return _emit(args, {"command": "entail", "counterexample": rows, "transfers": transfers}, lines)


def cmd_nogo(args) -> int:
    from . import nogo

    if args.what == "hardy":
        rep = nogo.verify_hardy()
        return _emit(
            args,
            {
                "command": "nogo",
                "what": "hardy",
                "witness_exists": rep.witness_exists,
                "conditions_ok": rep.conditions_ok,
                "ok": rep.ok,
            },
            rep.lines(),
        )
    if args.what == "ks":
        rep = nogo.verify_ks(nogo.load_ks(args.config), budget=_budget(args))
        return _emit(
            args,
            {
                "command": "nogo",
                "what": "ks",
                "colorable": rep.coloring is not None,
                "ncc": rep.ncc_holds,
                "extension_exists": rep.extension is not None,
                "ok": rep.ok,
            },
            rep.lines(),
        )
    # exists
    model = load_model(args.model)
    exists = nogo.exists_local_lambdaindep if args.target == "local+lambda" else nogo.exists_strongdet_lambdaindep
    witness = exists(model, _budget(args))
    if witness is None:
        return _emit(
            args,
            {"command": "nogo", "what": "exists", "target": args.target, "witness": None},
            [f"no {args.target} model exists for this empirical model"],
        )
    payload = model_to_dict(witness)
    if args.out:
        write_path(args.out, dump_json(payload))
    return _emit(
        args,
        {
            "command": "nogo",
            "what": "exists",
            "target": args.target,
            "witness": payload if not args.out else args.out,
        },
        [
            f"{args.target} model exists with {len(witness.lambda_values())} hidden values"
            + (f" -> {args.out}" if args.out else "")
        ],
    )


def cmd_verify(args) -> int:
    module, runner, flags, fields = SUITES[args.suite]
    given = {flag: getattr(args, flag) for flag in ("samples", "seed") if getattr(args, flag) is not None}
    for flag in (flag for flag in given if flag not in flags):
        readers = [name for name, (_, _, reads, _) in SUITES.items() if flag in reads]
        suites = "suites" if len(readers) > 1 else "suite"
        raise InvalidArgumentError(f"--{flag} applies to the {' and '.join(readers)} {suites} only, not {args.suite}")
    rep = getattr(import_module(f".{module}", __package__), runner)(**given)
    # a FAIL outcome is still a computed verdict: it goes in the report,
    # and the exit code stays 0
    lines = rep.lines() + [f"suite {args.suite}: {'PASS' if rep.ok else 'FAIL'}"]
    payload = {"command": "verify", "suite": args.suite, "ok": rep.ok}
    payload.update((key, getattr(rep, attr)) for key, attr in fields.items())
    return _emit(args, payload, lines)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    budgeted = argparse.ArgumentParser(add_help=False, parents=[common])
    budgeted.add_argument("--budget", type=int, default=None, help="search budget (rows and states)")

    parser = argparse.ArgumentParser(
        prog="teamlogic",
        description="Exact model checker for dependence and independence logic "
        "over relational and probabilistic teams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[budgeted], help="evaluate a formula on a team")
    p.add_argument("--team", required=True, help="team JSON file or builtin:NAME")
    p.add_argument("--formula", required=True)
    p.add_argument("--prob", action="store_true", help="probabilistic semantics")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", parents=[budgeted], help="check a named property of a model")
    p.add_argument("--model", required=True, help="model JSON file or builtin:NAME")
    p.add_argument("--property", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("construct", parents=[budgeted], help="build an equivalent hidden-variable model")
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True, choices=CONSTRUCT_TARGETS)
    p.add_argument("--out", required=True, help="output file, or - for stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("entail", parents=[budgeted], help="bounded relational counterexample search")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--vars", required=True, nargs="+")
    p.add_argument("--universe", type=int, default=2)
    p.add_argument("--max-rows", type=int, default=4)
    p.set_defaults(func=cmd_entail)

    p = sub.add_parser("nogo", help="no-go searches")
    nogo_sub = p.add_subparsers(dest="what", required=True)
    nogo_sub.add_parser("hardy", parents=[common]).set_defaults(func=cmd_nogo)
    ks = nogo_sub.add_parser("ks", parents=[budgeted])
    ks.add_argument("--config", default="builtin:cabello18", help="KS configuration JSON file or builtin:NAME")
    ks.set_defaults(func=cmd_nogo)
    ex = nogo_sub.add_parser("exists", parents=[budgeted])
    ex.add_argument("--model", required=True)
    ex.add_argument("--target", required=True, choices=EXISTS_TARGETS)
    ex.add_argument("--out", default=None)
    ex.set_defaults(func=cmd_nogo)

    p = sub.add_parser("verify", parents=[common], help="run a bundled verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=int, default=None, help="seed of the fig1 and entailments suites (default 0)")
    p.add_argument("--samples", type=int, default=None, help="random samples of the fig1 suite (default 1000)")
    p.set_defaults(func=cmd_verify)
    return parser


_ERROR_KINDS = {
    "ParseError": "parse-error",
    "DomainError": "domain-error",
    "InvalidArgumentError": "invalid-input",
    "UnsupportedFragmentError": "fragment-error",
    "ZeroProbabilityError": "zero-probability",
    "PreconditionError": "precondition-error",
    "BudgetExceededError": "budget-error",
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.json and getattr(args, "out", None) == "-":
            raise InvalidArgumentError("--out - and --json both write to stdout")
        return args.func(args)
    except TeamLogicError as exc:
        kind = _ERROR_KINDS.get(type(exc).__name__, "error")
        print(f"error[{kind}]: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceededError) else 2


if __name__ == "__main__":
    sys.exit(main())
