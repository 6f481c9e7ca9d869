"""The package's caches: each has a stated size, keeps nothing past it, and
changes no verdict and no refusal.

``formulas.parse`` keeps the formula of each recent text, and one plan
cache in ``eval_rel`` serves ``eval_rel``, ``eval_atom_rel`` and
``eval_prob``, keyed by the formula and the team's domain.
"""

import ast
import gc
import importlib
import pkgutil
import sys
import threading
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import teamlogic
from teamlogic.errors import BudgetExceededError, InvalidArgumentError, ParseError
from teamlogic.eval_prob import eval_prob
from teamlogic.eval_rel import PLAN_CACHE_SIZE, EvalBudget, _plan, eval_atom_rel, eval_rel
from teamlogic.formulas import PARSE_CACHE_SIZE, Const, Dep, Eq, Indep, Var, parse
from teamlogic.teams import ProbTeam, Team
from teamlogic.verify_appendix import verify_appendix

MODULES = [importlib.import_module(f"teamlogic.{info.name}") for info in pkgutil.iter_modules(teamlogic.__path__)]


class WeakTeam(Team):
    __slots__ = ("__weakref__",)


class WeakProbTeam(ProbTeam):
    __slots__ = ("__weakref__",)


@pytest.fixture(autouse=True)
def empty_caches():
    # each test sees only the entries it made
    parse.cache_clear()
    _plan.cache_clear()


def team():
    return Team(("x", "y"), [(0, 0), (0, 1), (1, 1)])


def test_a_formula_is_freed_once_evicted():
    formula = Eq(Var("x"), Const(0)) | Indep(("y",), (), ("x",))
    ref = weakref.ref(formula)
    assert eval_rel(team(), formula) in (True, False)
    del formula
    gc.collect()
    assert ref() is not None
    for i in range(PLAN_CACHE_SIZE):
        eval_rel(team(), Eq(Var("x"), Const(i)))
    gc.collect()
    assert ref() is None


def test_a_text_is_freed_once_evicted():
    ref = weakref.ref(parse("E q . dep(x, q) & (x = 0 | y _||_ q)"))
    gc.collect()
    assert ref() is not None
    for i in range(PARSE_CACHE_SIZE):
        parse(f"x = {i}")
    gc.collect()
    assert ref() is None


def test_a_formula_is_freed_once_the_caches_are_cleared():
    formula = parse("E q . dep(x, q) & (x = 0 | y _||_ q) | A r . x <= y")
    ref = weakref.ref(formula)
    assert eval_rel(team(), formula) in (True, False)
    del formula
    gc.collect()
    assert ref() is not None
    parse.cache_clear()
    _plan.cache_clear()
    gc.collect()
    assert ref() is None


def test_no_team_is_kept_alive():
    rel = WeakTeam(("x", "y"), [(0, 0), (0, 1), (1, 1)])
    prob = WeakProbTeam(rel, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4), (1, 1): Fraction(1, 4)})
    refs = [weakref.ref(rel), weakref.ref(prob)]
    assert not eval_rel(rel, parse("E q . dep(y, q) & x = q"))
    assert not eval_atom_rel(rel, parse("dep(y, x)"))
    assert not eval_prob(prob, parse("A r . dep(x, y) & x _||_ r"))
    del rel, prob
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert _plan.cache_info().currsize == 3


def test_each_cache_stays_within_its_size():
    prob = ProbTeam.uniform(team())
    for i in range(3 * PLAN_CACHE_SIZE):
        formula = parse(f"x = {i} | dep(x, y)")
        assert eval_rel(team(), formula) == eval_rel(team(), formula)
        assert not eval_atom_rel(team(), Dep(("y",), ("x",)))
        assert not eval_prob(prob, Indep(("x",), (), ("y",)))
    for cache, size in ((_plan, PLAN_CACHE_SIZE), (parse, PARSE_CACHE_SIZE)):
        assert cache.cache_parameters()["maxsize"] == size
        assert cache.cache_info().currsize == size


def test_the_plan_cache_keys_by_equality():
    # an equal formula built apart shares the plan of a parsed one
    first, second = parse("x = 1"), Eq(Var("x"), Const(1))
    assert first == second and first is not second
    for formula in (first, first, second):
        assert not eval_rel(team(), formula)
    assert _plan.cache_info()[:2] == (2, 1)


def test_the_appendix_compiles_its_plans_once():
    # its atoms and defining formulas are built once, so a second sweep
    # takes every plan from the cache
    first = verify_appendix()
    misses = _plan.cache_info().misses
    assert misses == 8
    assert verify_appendix() == first and first.ok
    assert _plan.cache_info().misses == misses


@pytest.mark.parametrize("value", [True, 1.0])
def test_a_cached_plan_keeps_refusing_a_constant(value):
    # such a constant equals 1, so x = true would take the plan of x = 1;
    # it is refused when built, each time, whatever the cache holds
    rel = Team(("x",), [(1,)])
    cached = parse("x = 1")
    assert eval_rel(rel, cached) and eval_atom_rel(rel, cached) and eval_prob(ProbTeam.uniform(rel), cached)
    for _ in range(2):
        with pytest.raises(InvalidArgumentError):
            Eq(Var("x"), Const(value))
    assert _plan.cache_info().currsize == 1


def test_a_parse_error_is_raised_again_at_the_same_position():
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            parse("dep(x, y) &\n  (x = ")
        errors.append((str(info.value), info.value.line, info.value.column))
    assert errors[0] == errors[1] and errors[0][1] == 2
    assert parse.cache_info().currsize == 0


def test_a_cached_plan_raises_its_budget_error_again():
    rel = Team(("x",), [(0,)], universe=range(9))
    formula = parse("E a . E b . dep(x, a b)")
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            eval_rel(rel, formula, EvalBudget(memo_limit=50))
    assert eval_rel(rel, formula)
    assert _plan.cache_info()[:2] == (2, 1)


def test_threads_racing_on_the_caches_never_raise():
    # more threads than cores, switching often, clearing the caches under
    # each other's lookups: at worst a plan is compiled twice
    texts = [f"x = {i} | dep(y, x)" for i in range(8)]
    expected = {text: eval_rel(team(), parse(text)) for text in texts}
    errors = []

    def work(k: int):
        try:
            for i in range(200):
                text = texts[i * k % len(texts)]
                assert eval_rel(team(), parse(text)) == expected[text]
                if i % 25 == k:
                    _plan.cache_clear()
                    parse.cache_clear()
        except Exception as error:  # reported below, from the main thread
            errors.append(error)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, 9)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_every_cache_has_a_stated_size():
    caches = [f for module in MODULES for f in vars(module).values() if hasattr(f, "cache_parameters")]
    assert {f.__qualname__ for f in caches} >= {"parse", "_plan", "_property_plan", "empirical_domain"}
    assert [f.__qualname__ for f in caches if f.cache_parameters()["maxsize"] is None] == []
    # and no cache is made elsewhere, in a class or a function, without a size
    for path in Path(teamlogic.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        sized = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call) and any(
            k.arg == "maxsize" and not (isinstance(k.value, ast.Constant) and k.value.value is None)
            for k in node.keywords
        )}
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name == "cache" or name == "lru_cache" and id(node) not in sized:
                pytest.fail(f"{path.name}:{node.lineno} makes a cache with no stated maxsize")
