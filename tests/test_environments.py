import json
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtrain.environments import (
    MAX_SOLUTION_LEN,
    EnvKind,
    ExecutionResult,
    Status,
    TaskEncodingError,
    TaskInstance,
    _read,
    canonical_output,
    check_task,
    execute,
    generate_dataset,
    load_dataset,
    load_witnesses,
    witness_path,
    write_dataset,
)
from symtrain.environments.expr import (
    ExprParseError,
    ExprRuntimeError,
    eval_expr,
    parse_expr,
    parse_task_input,
)
from symtrain.environments.grid import GridSpec, parse_grid_task, simulate
from symtrain.environments.logic import (
    LogicParseError,
    forward_chain,
    parse_program,
)
from symtrain.policy import CONTROL_TOKENS
from helpers import (OracleFailure, assert_read_only, ground_closure, shunting_yard_eval,
                     walk_grid)


def _expr_task(x_tokens, y):
    return TaskInstance("t0", tuple(x_tokens), y, env=EnvKind.EXPR_MATH.value)


# ---------------------------------------------------------------------------
# expression parser / evaluator

def test_operator_precedence():
    task = _expr_task(["q"], "11")  # no bindings needed
    res = execute(EnvKind.EXPR_MATH, _expr_task(["z", "=", "1", ";", "z"], "11"),
                  list("3+4*2"))
    assert res.status is Status.OK and res.output == "11" and res.b == 1


def test_malformed_expression_is_parse_error():
    res = execute(EnvKind.EXPR_MATH, _expr_task(["z", "=", "1", ";", "z"], "7"),
                  list("3+*4"))
    assert res.status is Status.PARSE_ERROR and res.b == 0


def test_parse_error_carries_byte_offset():
    with pytest.raises(ExprParseError) as err:
        parse_expr(list("3+*4"))
    assert err.value.offset == 2
    with pytest.raises(ExprParseError) as err:
        parse_expr(list("(2+3"))
    assert err.value.offset == 4


def test_parenthesized_evaluation():
    assert eval_expr(parse_expr(list("(2+3)*4")), {}) == 20


def test_inexact_division_is_runtime_error():
    with pytest.raises(ExprRuntimeError, match="inexact"):
        eval_expr(parse_expr(list("10/4")), {})
    res = execute(EnvKind.EXPR_MATH, _expr_task(["z", "=", "1", ";", "z"], "2"),
                  list("10/4"))
    assert res.status is Status.RUNTIME_ERROR and res.b == 0


def test_division_by_zero_is_runtime_error():
    with pytest.raises(ExprRuntimeError, match="zero"):
        eval_expr(parse_expr(list("1/0")), {})


def test_bindings_from_task_input():
    x = ["a", "=", "2", ";", "b", "=", "3", ";", "c", "=", "4", ";", "sum", "a", "b"]
    bindings, query = parse_task_input(x)
    assert bindings == {"a": 2, "b": 3, "c": 4}
    assert query == ["sum", "a", "b"]
    assert eval_expr(parse_expr(["a", "+", "b", "*", "c"]), bindings) == 14


def test_unbound_identifier_is_runtime_error():
    res = execute(EnvKind.EXPR_MATH, _expr_task(["a", "=", "2", ";", "q"], "2"),
                  ["z"])
    assert res.status is Status.RUNTIME_ERROR


def test_empty_solution_is_parse_error():
    res = execute(EnvKind.EXPR_MATH, _expr_task(["a", "=", "2", ";", "q"], "2"), [])
    assert res.status is Status.PARSE_ERROR and res.b == 0


def _random_expr_tokens(rng, bindings, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.4:
        if bindings and rng.random() < 0.4:
            return [str(rng.choice(sorted(bindings)))]
        return list(str(int(rng.integers(0, 500))))
    op = str(rng.choice(list("+-*/%")))
    left = _random_expr_tokens(rng, bindings, depth + 1)
    right = _random_expr_tokens(rng, bindings, depth + 1)
    tokens = left + [op] + right
    if rng.random() < 0.3:
        tokens = ["("] + tokens + [")"]
    return tokens


def test_evaluator_agrees_with_shunting_yard_oracle_on_1000_expressions():
    rng = np.random.default_rng(42)
    bindings = {"a": 7, "b": 12, "c": 3}
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 20000, "oracle comparison starved"
        tokens = _random_expr_tokens(rng, bindings)
        try:
            expected = shunting_yard_eval(tokens, bindings)
        except OracleFailure:
            # division/mod failures: the implementation must also fail
            try:
                got = eval_expr(parse_expr(tokens), bindings)
            except (ExprRuntimeError, ExprParseError):
                continue
            raise AssertionError(f"oracle failed but evaluator returned {got} "
                                 f"for {''.join(tokens)}")
        got = eval_expr(parse_expr(tokens), bindings)
        assert got == expected, f"{''.join(tokens)}: {got} != {expected}"
        checked += 1


# ---------------------------------------------------------------------------
# canonicalization

@pytest.mark.parametrize("raw,expected", [
    ("  11 ", "11"), ("+11", "11"), ("-0", "0"), ("007", "7"),
    ("true", "true"), (" 0,2 ", "0,2"),
])
def test_canonical_output(raw, expected):
    assert canonical_output(raw) == expected


def test_equivalent_integer_outputs_agree_on_feedback():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = int(rng.integers(-200, 200))
        task = _expr_task(["a", "=", "1", ";", "a"],
                          f"+{v}" if v >= 0 else str(v))
        res = execute(EnvKind.EXPR_MATH, task, list(str(v)) if v >= 0
                      else ["0", "-"] + list(str(-v)))
        assert res.b == 1


# ---------------------------------------------------------------------------
# logic engine

def _logic_task(y):
    return TaskInstance("l0", ("?",), y, env=EnvKind.LOGIC_RULES.value)


def test_one_step_derivation():
    program = ["fact", "p", "(", "a", ")", ".",
               "rule", "q", "(", "X", ")", ":-", "p", "(", "X", ")", ".",
               "query", "q", "(", "a", ")", "?"]
    res = execute(EnvKind.LOGIC_RULES, _logic_task("true"), program)
    assert res.status is Status.OK and res.output == "true" and res.b == 1


def test_query_only_program_is_false():
    res = execute(EnvKind.LOGIC_RULES, _logic_task("false"),
                  ["query", "q", "(", "a", ")", "?"])
    assert res.output == "false" and res.b == 1


def test_program_without_query_is_parse_error():
    res = execute(EnvKind.LOGIC_RULES, _logic_task("true"),
                  ["fact", "p", "(", "a", ")", "."])
    assert res.status is Status.PARSE_ERROR


def test_unsafe_rule_rejected():
    with pytest.raises(LogicParseError, match="unsafe"):
        parse_program(["rule", "q", "(", "X", ")", ":-", "p", "(", "a", ")", ".",
                       "query", "q", "(", "a", ")", "?"])


def test_nonground_fact_rejected():
    with pytest.raises(LogicParseError, match="variables"):
        parse_program(["fact", "p", "(", "X", ")", ".",
                       "query", "p", "(", "a", ")", "?"])


def test_exponential_rule_join_times_out_fast():
    # 4 facts and an 8-atom body join to 262,140 matches without the budget
    program = []
    for c in "abcd":
        program += ["fact", "p", "(", c, ")", "."]
    program += ["rule", "q", "(", "X", ")", ":-"]
    for i, var in enumerate("XYZWVUTS"):
        program += ([","] if i else []) + ["p", "(", var, ")"]
    program += [".", "query", "q", "(", "a", ")", "?"]
    assert len(program) == 76
    start = time.perf_counter()
    res = execute(EnvKind.LOGIC_RULES, _logic_task("true"), program)
    assert res.status is Status.TIMEOUT and res.b == 0
    assert time.perf_counter() - start < 0.1


def _random_program(rng):
    constants = list(rng.choice(list("abcdefgh"),
                                size=int(rng.integers(2, 9)), replace=False))
    predicates = list(rng.choice(list("pqrstuvw"),
                                 size=int(rng.integers(2, 6)), replace=False))
    tokens = []
    n_facts = int(rng.integers(1, 6))
    for _ in range(n_facts):
        pred = str(rng.choice(predicates))
        arity = int(rng.integers(1, 3))
        args = [str(rng.choice(constants)) for _ in range(arity)]
        tokens += ["fact", pred, "("] + _join_args(args) + [")", "."]
    n_rules = int(rng.integers(1, 11))
    for _ in range(n_rules):
        variables = ["X", "Y"][: int(rng.integers(1, 3))]
        body = []
        body_vars = set()
        for _ in range(int(rng.integers(1, 3))):
            pred = str(rng.choice(predicates))
            arity = int(rng.integers(1, 3))
            args = []
            for _ in range(arity):
                if rng.random() < 0.7:
                    v = str(rng.choice(variables))
                    args.append(v)
                    body_vars.add(v)
                else:
                    args.append(str(rng.choice(constants)))
            body.append((pred, args))
        head_pred = str(rng.choice(predicates))
        head_arity = int(rng.integers(1, 3))
        head_args = []
        for _ in range(head_arity):
            if body_vars and rng.random() < 0.8:
                head_args.append(str(rng.choice(sorted(body_vars))))
            else:
                head_args.append(str(rng.choice(constants)))
        tokens += ["rule", head_pred, "("] + _join_args(head_args) + [")", ":-"]
        for i, (pred, args) in enumerate(body):
            if i:
                tokens += [","]
            tokens += [pred, "("] + _join_args(args) + [")"]
        tokens += ["."]
    q_pred = str(rng.choice(predicates))
    q_args = [str(rng.choice(constants)) for _ in range(int(rng.integers(1, 3)))]
    tokens += ["query", q_pred, "("] + _join_args(q_args) + [")", "?"]
    return tokens, constants


def _join_args(args):
    out = []
    for i, a in enumerate(args):
        if i:
            out.append(",")
        out.append(a)
    return out


def test_engine_equals_ground_closure_on_200_random_programs():
    rng = np.random.default_rng(123)
    for _ in range(200):
        tokens, constants = _random_program(rng)
        program = parse_program(tokens)
        closure = forward_chain(program)
        oracle = ground_closure(set(program.facts), program.rules, constants)
        assert closure == oracle
        answer = "true" if program.query in closure else "false"
        res = execute(EnvKind.LOGIC_RULES, _logic_task(answer), tokens)
        assert res.output == answer and res.b == 1


# ---------------------------------------------------------------------------
# grid

def _grid_task(x, y):
    return TaskInstance("g0", tuple(x), y, env=EnvKind.GRID_AGENT.value)


def test_grid_simple_walk():
    x = ["grid", "3", "3", ";", "start", "0", "0", ";", "goal", "0", "2"]
    res = execute(EnvKind.GRID_AGENT, _grid_task(x, "0,2"), ["R", "R"])
    assert res.status is Status.OK and res.b == 1


def test_grid_empty_actions_at_goal():
    x = ["grid", "3", "3", ";", "start", "1", "1", ";", "goal", "1", "1"]
    res = execute(EnvKind.GRID_AGENT, _grid_task(x, "1,1"), [])
    assert res.b == 1


def test_grid_unknown_action_is_parse_error():
    x = ["grid", "3", "3", ";", "start", "0", "0", ";", "goal", "0", "2"]
    res = execute(EnvKind.GRID_AGENT, _grid_task(x, "0,2"), ["R", "Q"])
    assert res.status is Status.PARSE_ERROR


def test_grid_wall_blocks_then_detour():
    x = ["grid", "2", "3", ";", "start", "0", "0", ";", "goal", "0", "2",
         ";", "wall", "0", "1"]
    spec = parse_grid_task(x)
    actions = ["R", "D", "R", "R", "U"]
    assert simulate(spec, actions) == walk_grid(2, 3, (0, 0), {(0, 1)}, actions)
    res = execute(EnvKind.GRID_AGENT, _grid_task(x, "0,2"), actions)
    assert res.b == 1


def test_grid_simulator_matches_reference_on_200_sequences():
    rng = np.random.default_rng(77)
    for _ in range(200):
        rows = int(rng.integers(2, 8))
        cols = int(rng.integers(2, 8))
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        start = cells[int(rng.integers(0, len(cells)))]
        walls = {c for c in cells if c != start and rng.random() < 0.25}
        spec = GridSpec(rows, cols, start, start, frozenset(walls))
        actions = [str(a) for a in rng.choice(list("UDLR"),
                                              size=int(rng.integers(0, 40)))]
        assert simulate(spec, actions) == walk_grid(rows, cols, start, walls, actions)


# ---------------------------------------------------------------------------
# the solution-length bound

def test_solutions_at_the_bound_grade_without_raising():
    task = _expr_task(["a", "=", "2", ";", "q"], "128")
    nested = ["("] * 127 + ["4", "2"] + [")"] * 127
    chain = ["1", *["+", "1"] * 127]
    assert len(nested) == MAX_SOLUTION_LEN and len(chain) == MAX_SOLUTION_LEN - 1
    assert execute(EnvKind.EXPR_MATH, task, nested) == ExecutionResult(Status.OK, "42", 0)
    assert execute(EnvKind.EXPR_MATH, task, chain) == ExecutionResult(Status.OK, "128", 1)
    x = ["grid", "3", "3", ";", "start", "0", "0", ";", "goal", "0", "2"]
    assert execute(EnvKind.GRID_AGENT, _grid_task(x, "0,2"), ["R"] * MAX_SOLUTION_LEN) == \
        ExecutionResult(Status.OK, "0,2", 1)


def test_solutions_over_the_bound_time_out():
    grid_x = ["grid", "3", "3", ";", "start", "0", "0", ";", "goal", "0", "2"]
    cases = {
        EnvKind.EXPR_MATH: (_expr_task(["a", "=", "2", ";", "q"], "2"), [
            lambda n: ["("] * (n // 2) + ["1"] + [")"] * (n - n // 2 - 1),
            lambda n: ["1", *["+", "1"] * n][:n]]),
        EnvKind.LOGIC_RULES: (_logic_task("true"), [
            lambda n: (["rule", "q", "(", "X", ")", ":-"]
                       + [",", "p", "(", "X", ")"] * n)[:n]]),
        EnvKind.GRID_AGENT: (_grid_task(grid_x, "0,2"), [lambda n: ["R"] * n]),
    }
    for env, (task, builders) in cases.items():
        for build in builders:
            for n in (MAX_SOLUTION_LEN + 1, 2_000):
                a = build(n)
                assert len(a) == n
                assert execute(env, task, a) == ExecutionResult(Status.TIMEOUT, None, 0)


# ---------------------------------------------------------------------------
# execution purity

def test_execute_is_pure():
    task = _expr_task(["a", "=", "3", ";", "sum", "a", "a"], "6")
    first = execute(EnvKind.EXPR_MATH, task, ["a", "+", "a"])
    second = execute(EnvKind.EXPR_MATH, task, ["a", "+", "a"])
    assert first == second


@pytest.mark.parametrize("env, x, y, match", [
    pytest.param(EnvKind.EXPR_MATH, ("a", "=", ";", "a"), "0,0", "malformed binding",
                 id="expr_math-x0"),
    # a superscript digit is a digit to str.isdigit, but not to int()
    pytest.param(EnvKind.EXPR_MATH, ("a", "=", "²", ";", "a"), "0", "malformed binding",
                 id="expr_math-superscript_digit"),
    pytest.param(EnvKind.GRID_AGENT, ("grid", "²", "3", ";", "start", "0", "0", ";",
                                      "goal", "1", "2"), "1,2", "expected two digits",
                 id="grid_agent-superscript_digit"),
    pytest.param(EnvKind.GRID_AGENT, ("grid", "3", "3", ";", "start", "0", "0"), "0,0",
                 "one goal", id="grid_agent-x1"),
    # each board below is well formed but for the one defect, and y is its goal
    pytest.param(EnvKind.GRID_AGENT, ("grid", "3", "3", ";", "start", "0", "0", ";",
                                      "goal", "1", "2", ";", "wall", "1", "2"), "1,2",
                 "wall on its goal", id="grid_agent-wall_on_goal"),
    pytest.param(EnvKind.GRID_AGENT, ("grid", "3", "3", ";", "start", "0", "0", ";",
                                      "goal", "1", "2", ";", "wall", "0", "0"), "1,2",
                 "wall on its start", id="grid_agent-wall_on_start"),
    # the last grid field would win: read as 4 x 4, where goal 3 3 is on the board
    pytest.param(EnvKind.GRID_AGENT, ("grid", "3", "3", ";", "grid", "4", "4", ";",
                                      "start", "0", "0", ";", "goal", "3", "3"), "3,3",
                 "repeats its grid field", id="grid_agent-two_grid_fields"),
])
def test_a_malformed_x_raises_on_every_call(env, x, y, match):
    # the reader is memoised, and the memo must not keep the failure
    task = TaskInstance("bad", x, y, env=env.value)
    for _ in range(3):
        with pytest.raises(TaskEncodingError, match=match):
            execute(env, task, ["a"])


GRID_X = ("grid", "3", "3", ";", "start", "0", "0", ";", "goal", "1", "2")


@pytest.mark.parametrize("env, x, y", [
    (EnvKind.GRID_AGENT, GRID_X, "0,0"),  # the start cell, not the goal
    (EnvKind.GRID_AGENT, GRID_X, "2,1"),
    (EnvKind.LOGIC_RULES, ("?", "p", "a"), "yes"),
    (EnvKind.EXPR_MATH, ("a", "=", "3", ";", "sum", "a", "a"), "6.0"),
])
def test_a_y_the_env_cannot_produce_raises_on_every_call(env, x, y):
    # grading against such a y would label b without regard to the task
    task = TaskInstance("bad", x, y, env=env.value)
    for _ in range(3):
        with pytest.raises(TaskEncodingError, match=f"y {y!r}"):
            check_task(env, task)
        with pytest.raises(TaskEncodingError, match=f"y {y!r}"):
            execute(env, task, [])


def test_the_task_readings_cannot_be_mutated():
    tasks = [TaskInstance("e", ("a", "=", "3", ";", "sum", "a", "a"), "6",
                          env=EnvKind.EXPR_MATH.value),
             TaskInstance("g", (*GRID_X, ";", "wall", "0", "1"), "1,2",
                          env=EnvKind.GRID_AGENT.value),
             TaskInstance("l", ("?", "p", "a"), "true", env=EnvKind.LOGIC_RULES.value)]
    readings = [_read(EnvKind(t.env), t.x, t.y) for t in tasks]
    for task, (reading, expected) in zip(tasks, readings):
        assert_read_only(reading)
        assert expected == task.y
    assert readings[0][0] == ({"a": 3}, ("sum", "a", "a"))
    assert execute(EnvKind.EXPR_MATH, tasks[0], ["a", "+", "a"]).b == 1


LETTERS = "abcdefghijklmnopqrstuvwxyz"

# the tokens each environment's solution grammar is built from
GRAMMAR_TOKENS = {
    EnvKind.EXPR_MATH: [*"0123456789", *LETTERS, *"+-*/%()"],
    EnvKind.LOGIC_RULES: ["fact", "rule", "query", "(", ")", ",", ".", "?", ":-",
                          *LETTERS, *LETTERS.upper()],
    EnvKind.GRID_AGENT: ["U", "D", "L", "R"],
}


@pytest.mark.parametrize("env", list(EnvKind))
def test_execute_never_raises_and_stays_fast_on_fuzzed_solutions(env):
    tasks, _ = generate_dataset(env, 3, seed=0)
    tasks += generate_dataset(env, 2, seed=0, split="held_out")[0]
    tokens = st.sampled_from([*GRAMMAR_TOKENS[env], *CONTROL_TOKENS])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(tasks), st.lists(tokens, max_size=MAX_SOLUTION_LEN))
    def check(task, a):
        start = time.perf_counter()
        result = execute(env, task, a)
        assert time.perf_counter() - start < 0.1
        assert isinstance(result, ExecutionResult)

    check()


@pytest.mark.parametrize("env", list(EnvKind))
def test_execute_never_raises_on_arbitrary_text_tokens(env):
    # a model's vocabulary is any list of strings, not only the grammar's
    tasks, _ = generate_dataset(env, 3, seed=0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(tasks), st.lists(st.text(max_size=4), max_size=12))
    def check(task, a):
        assert execute(env, task, a).b in (0, 1)

    check()
    assert execute(env, tasks[0], ["²"]).b == 0


# ---------------------------------------------------------------------------
# dataset generation

@pytest.mark.parametrize("env", list(EnvKind))
def test_generation_is_deterministic(env):
    a_tasks, a_wit = generate_dataset(env, 5, seed=1)
    b_tasks, b_wit = generate_dataset(env, 5, seed=1)
    assert a_tasks == b_tasks and a_wit == b_wit
    c_tasks, _ = generate_dataset(env, 5, seed=2)
    assert c_tasks != a_tasks


def test_held_out_expr_operands_strictly_larger():
    tasks, _ = generate_dataset(EnvKind.EXPR_MATH, 40, seed=3, split="held_out")
    from symtrain.environments.expr import parse_task_input as pti
    for t in tasks:
        bindings, _ = pti(t.x)
        assert all(v >= 100 for v in bindings.values())
    tasks_in, _ = generate_dataset(EnvKind.EXPR_MATH, 40, seed=3, split="held_in")
    for t in tasks_in:
        bindings, _ = pti(t.x)
        assert all(v <= 99 for v in bindings.values())


@pytest.mark.parametrize("env", list(EnvKind))
@pytest.mark.parametrize("split", ["held_in", "held_out"])
def test_every_witness_executes_correctly(env, split):
    tasks, witnesses = generate_dataset(env, 30, seed=9, split=split)
    for t in tasks:
        res = execute(env, t, witnesses[t.id])
        assert res.b == 1, f"witness for {t.id} failed: {res}"


@pytest.mark.parametrize("x,y,field", [((), "1", "input x"), (("1",), "", "output y")])
def test_task_instance_rejects_an_empty_x_or_y(x, y, field):
    with pytest.raises(ValueError, match=f"task 't': .*{field} must be non-empty"):
        TaskInstance("t", x, y)


def test_dataset_roundtrip(tmp_path):
    tasks, witnesses = generate_dataset(EnvKind.EXPR_MATH, 8, seed=4)
    more, more_w = generate_dataset(EnvKind.EXPR_MATH, 4, seed=4, split="held_out")
    tasks += more
    witnesses.update(more_w)
    path = tmp_path / "data.jsonl"
    write_dataset(tasks, witnesses, path)
    assert load_dataset(path) == tasks
    loaded_w = load_witnesses(witness_path(path))
    assert loaded_w == {k: list(v) for k, v in witnesses.items()}


@pytest.mark.parametrize("loader, line, message", [
    (load_dataset, "[1, 2]", "expected a JSON object, got a list"),
    (load_dataset, '{"id": "t", "x": 5, "y": "1", "split": "held_in", "env": "expr_math"}',
     "'x' must be a string"),
    (load_dataset, '{"id": "t", "x": "a", "y": 1, "split": "held_in", "env": "expr_math"}',
     "'y' must be a string"),
    (load_witnesses, '"a b"', "expected a JSON object, got a str"),
    (load_witnesses, '{"id": "t", "a": ["a", "b"]}', "'a' must be a string"),
], ids=["dataset_list", "dataset_x", "dataset_y", "witness_str", "witness_a"])
def test_loaders_reject_malformed_lines_by_line_number(tmp_path, loader, line, message):
    tasks, witnesses = generate_dataset(EnvKind.EXPR_MATH, 2, seed=0)
    path = tmp_path / "data.jsonl"
    write_dataset(tasks, witnesses, path)
    target = path if loader is load_dataset else witness_path(path)
    target.write_text(target.read_text() + line + "\n")
    with pytest.raises(ValueError, match=f"on line 3: .*{message}"):
        loader(target)


def test_load_witnesses_rejects_a_repeated_id_by_line_number(tmp_path):
    # a repeated record used to replace the generator's witness silently
    tasks, witnesses = generate_dataset(EnvKind.EXPR_MATH, 2, seed=0)
    path = tmp_path / "data.jsonl"
    write_dataset(tasks, witnesses, path)
    side = witness_path(path)
    first = json.loads(side.read_text().splitlines()[0])
    side.write_text(side.read_text() + json.dumps({"id": first["id"], "a": "a + b"}) + "\n")
    message = f"on line 3: duplicate witness id {first['id']!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_witnesses(side)


def test_gen_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        generate_dataset(EnvKind.EXPR_MATH, 0, seed=0)
