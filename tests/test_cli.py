import dataclasses
import gc
import hashlib
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from oracles import bracket_oracle

from warpsplit import (
    SingleValuedOperator,
    affine_set_normal_cone,
    algorithms,
    ball_normal_cone,
    cli,
    constant_operator,
    halfspace_normal_cone,
    identity_map,
    kernels,
    l1_operator,
    zero_map,
)
from warpsplit.cli import (
    EXIT_INFEASIBLE,
    EXIT_MAX_ITER,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    ProblemFile,
    generate_problem,
    main,
    parse_problem,
    parse_text,
)
from warpsplit.errors import ConfigurationError, ProblemFormatError, UnknownOperatorError

MINIMAL = """\
kind = inclusion
x0 = [2.0, 0.0]
begin A
  name = ball
  center = [0.0, 0.0]
  radius = 1.0
end
begin solver
  variant = weak
  gamma = 1.0
  max_iter = 200
  tol_residual = 1e-09
  tol_step = 1e-09
end
"""

BAD_REGIME = """\
kind = inclusion
x0 = [1.0]
begin A
  name = ball
  radius = 1.0
end
begin B
  name = affine_map
  matrix = [[1.0]]
end
begin kernel
  name = fbf
  epsilon = 0.9
end
begin solver
  variant = weak
  gamma = 10.0
end
"""

COUPLED_SCALAR = """\
kind = coupled
begin primal
  dim = 1
  begin A
    name = scaled_identity
    scale = 1.0
  end
end
begin dual
  dim = 1
  r = [2.0]
  begin B
    name = scaled_identity
    scale = 1.0
  end
end
begin coupling
  primal = 1
  dual = 1
  matrix = [[1.0]]
end
begin solver
  variant = coupled
  max_iter = 5000
  tol_residual = 1e-09
  tol_step = 1e-09
end
begin solution
  x = [1.0]
  v_star = [-1.0]
end
"""

# A non-monotone forward part: the catalog affine_map rejects it.  Declared
# monotone through a user oracle, it makes the Haugazeau cuts disjoint at n = 2.
NON_MONOTONE_FORWARD = """\
kind = inclusion
x0 = [-1.5, -2.0]
begin A
  name = box
  lo = [-1.0, -1.0]
  hi = [1.0, 1.0]
end
begin B
  name = affine_map
  matrix = [[2.0, 0.0], [1.5, 0.0]]
end
begin kernel
  name = fbf
end
begin solver
  variant = strong
  max_iter = 50
end
"""

DIVERGING = """\
kind = inclusion
x0 = [1.0]
begin A
  name = affine
  matrix = [[-0.5]]
end
begin solver
  variant = weak
  gamma = 1.0
  max_iter = 5000
end
"""

# Valid constants, but the first forward evaluation B(x0) overflows to Inf.
OVERFLOWING = """\
kind = inclusion
x0 = [1.0e200]
begin A
  name = zero
end
begin B
  name = affine_map
  matrix = [[1.0e200]]
end
begin kernel
  name = fbf
end
begin solver
  variant = weak
  epsilon = 1.0e-201
end
"""

# The forward part is zero, so K = Id and the run projects x0 onto the box.
ZERO_FORWARD = """\
kind = inclusion
x0 = [-2.2]
begin A
  name = box
  lo = [-1.0]
  hi = [1.0]
end
begin B
  name = affine_map
  matrix = [[0.0]]
end
begin kernel
  name = fbf
end
begin solver
  variant = strong
end
"""

HALVING = """\
kind = inclusion
x0 = [1.0, 1.0]
begin A
  name = scaled_identity
  scale = 1.0
end
begin solver
  variant = weak
  gamma = 1.0
  lambda = 1.0
  max_iter = 20
  tol_residual = 1e-12
  tol_step = 1e-12
end
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_minimal_and_run_converges(tmp_path):
    pf = parse_problem(write(tmp_path, "min.txt", MINIMAL))
    res = pf.run({})
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-8)


def test_parse_reports_line_and_column(tmp_path):
    bad = "kind = inclusion\nx0 = [1.0, oops]\n"
    with pytest.raises(ProblemFormatError) as err:
        parse_problem(write(tmp_path, "bad.txt", bad))
    assert "line 2" in str(err.value)


def test_parse_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"kind = inclusion\nx0 = [1.0]\n\xff\n")
    with pytest.raises(ProblemFormatError, match=r"^line 3: not UTF-8: invalid start byte$"):
        parse_problem(path)
    assert main(["run", "--problem", str(path)]) == EXIT_USAGE


def test_parse_unclosed_block():
    with pytest.raises(ProblemFormatError) as err:
        parse_text("begin A\nname = ball\n")
    assert "unclosed" in str(err.value)


def test_regime_violation_is_parse_time_error(tmp_path):
    with pytest.raises(ConfigurationError) as err:
        parse_problem(write(tmp_path, "bad.txt", BAD_REGIME))
    assert "(alpha - epsilon)/beta" in str(err.value)


def test_gamma_within_roundoff_of_the_floor_runs(tmp_path):
    # The file check uses the engine's gamma floor, roundoff slack included.
    text = MINIMAL.replace("gamma = 1.0", "epsilon = 0.05\n  gamma = 0.0499999999999999")
    summary = tmp_path / "s.json"
    code = main(["run", "--problem", write(tmp_path, "g.txt", text), "--summary", str(summary)])
    assert code == EXIT_OK
    assert json.loads(summary.read_text())["iterations"] == 2
    below = text.replace("0.0499999999999999", "0.0499")
    assert main(["run", "--problem", write(tmp_path, "b.txt", below)]) == EXIT_USAGE


# The kernel's epsilon (0.2) is larger than the solver's (0.05): the default
# step must lie below (1 - 0.2)/1, the upper end the run checks.
KERNEL_EPSILON_ABOVE_SOLVER = MINIMAL.replace("gamma = 1.0", "epsilon = 0.05").replace(
    "begin solver",
    "begin B\n  name = affine_map\n  matrix = [[0, 1], [-1, 0]]\nend\n"
    "begin kernel\n  name = fbf\n  epsilon = 0.2\nend\nbegin solver")


def test_default_step_lies_inside_the_kernel_epsilon_range(tmp_path):
    prob = write(tmp_path, "k.txt", KERNEL_EPSILON_ABOVE_SOLVER)
    summary = tmp_path / "s.json"
    assert main(["run", "--problem", prob, "--summary", str(summary)]) == EXIT_OK
    assert json.loads(summary.read_text())["iterations"] == 102
    assert parse_problem(prob).run({}).trace[0].gamma == pytest.approx(0.72, rel=1e-15)


def test_empty_kernel_step_range_is_parse_time_error(tmp_path):
    # epsilon = 0.6 >= alpha/(beta + 1) = 0.5 leaves [0.6, 0.4] empty.
    text = KERNEL_EPSILON_ABOVE_SOLVER.replace("epsilon = 0.2", "epsilon = 0.6")
    with pytest.raises(ConfigurationError, match=r"alpha/\(beta \+ 1\)"):
        parse_problem(write(tmp_path, "e.txt", text))


def test_geometric_gamma_below_the_floor_is_parse_time_error(tmp_path):
    # gamma_n = max(0.01, 0.9 * 0.5^n) drops below epsilon = 0.05 at n = 5.
    text = MINIMAL.replace(
        "gamma = 1.0",
        "epsilon = 0.05\n  begin gamma\n    rule = geometric\n    start = 0.9\n"
        "    factor = 0.5\n    floor = 0.01\n  end")
    with pytest.raises(ConfigurationError, match="outside"):
        parse_problem(write(tmp_path, "g.txt", text))


@pytest.mark.parametrize("lam", [
    "lambda = 2.5",
    "begin lambda\n    rule = geometric\n    start = 1.5\n    factor = 0.5\n    floor = 0.01\n  end",
])
def test_relaxation_is_checked_at_parse(tmp_path, lam):
    text = MINIMAL.replace("gamma = 1.0", f"gamma = 1.0\n  {lam}")
    with pytest.raises(ConfigurationError, match="relaxation lambda"):
        parse_problem(write(tmp_path, "l.txt", text))
    parse_problem(write(tmp_path, "s.txt", text.replace("variant = weak", "variant = strong")))


def geometric(key, start, floor):
    return (f"begin {key}\n    rule = geometric\n    start = {start}\n    factor = 0.5\n"
            f"    floor = {floor}\n  end")


@pytest.mark.parametrize("block, message", [
    (geometric("lambda", 2.5, 1.0),
     "relaxation lambda_0 = 2.5 outside [epsilon, 2 - epsilon] = [0.05, 1.95]"),
    (geometric("lambda", 1.0, 0.01),
     "relaxation lambda_inf = 0.01 outside [epsilon, 2 - epsilon] = [0.05, 1.95]"),
    (geometric("gamma", 0.01, 0.01),
     "gamma_0 = 0.01 outside [epsilon, (alpha - epsilon)/beta] = [0.05, inf]"),
    (geometric("gamma", 0.9, 0.01),
     "gamma_inf = 0.01 outside [epsilon, (alpha - epsilon)/beta] = [0.05, inf]"),
], ids=["lambda_0", "lambda_inf", "gamma_0", "gamma_inf"])
def test_schedule_block_errors_name_the_failing_end(tmp_path, block, message):
    # A rule is checked at its first stage (_0) and at its limit, the floor (_inf).
    text = MINIMAL.replace("gamma = 1.0", "epsilon = 0.05\n  " + block)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        parse_problem(write(tmp_path, "e.txt", text))


@pytest.mark.parametrize("setting", ["max_iter = 0", "epsilon = 2.0"])
def test_coupled_solver_section_is_checked_at_parse(tmp_path, setting):
    text = COUPLED_SCALAR.replace("max_iter = 5000", setting)
    with pytest.raises(ConfigurationError):
        parse_problem(write(tmp_path, "c.txt", text))


@pytest.mark.parametrize("gamma", [
    "gamma = 0.5",
    "begin gamma\n    rule = geometric\n    start = 1.0\n    factor = 0.5\n    floor = 0.1\n  end",
])
def test_coupled_solver_step_other_than_one_is_a_usage_error(tmp_path, capsys, gamma):
    # The coupled kernels fold gamma = 1; a file step is rejected at parse, not ignored.
    text = COUPLED_SCALAR.replace("variant = coupled", f"variant = coupled\n  {gamma}")
    with pytest.raises(ConfigurationError, match="coupled run's step is 1"):
        parse_problem(write(tmp_path, "c.txt", text))
    assert main(["run", "--problem", write(tmp_path, "c.txt", text)]) == EXIT_USAGE
    assert "coupled run's step is 1" in capsys.readouterr().err
    assert not (tmp_path / "c.txt.trace.csv").exists()
    unit = COUPLED_SCALAR.replace("variant = coupled", "variant = coupled\n  gamma = 1.0")
    assert parse_problem(write(tmp_path, "u.txt", unit)).run({}).converged


def test_coupled_parse_and_run_build_one_kernel(tmp_path, monkeypatch):
    builds = []
    real = kernels.coupled_kernel

    def counted(*args):
        builds.append(1)
        return real(*args)

    monkeypatch.setattr(kernels, "coupled_kernel", counted)
    monkeypatch.setattr(algorithms, "coupled_kernel", counted)
    assert parse_problem(write(tmp_path, "c.txt", COUPLED_SCALAR)).run({}).converged
    assert len(builds) == 1


ROTATION_BOX = """\
kind = inclusion
x0 = [0.9, 0.1]
begin A
  name = box
  lo = [0.0, 0.0]
  hi = [1.0, 1.0]
end
begin B
  name = affine_map
  matrix = [[0.0, 1.0], [-1.0, 0.0]]
  offset = [-0.5, 0.5]
end
begin kernel
  name = fbf
  epsilon = 0.2
end
begin solver
  variant = weak
  epsilon = 0.2
  gamma = 0.7
  max_iter = 25
  tol_residual = 1e-300
  tol_step = 1e-300
end
"""

GEOMETRIC_GAMMA = ROTATION_BOX.replace(
    "gamma = 0.7",
    "begin gamma\n    rule = geometric\n    start = 0.7\n    factor = 0.99\n"
    "    floor = 0.2\n  end")


GEOMETRIC_FLAT = GEOMETRIC_GAMMA.replace("factor = 0.99", "factor = 1.0")
CONSTANT_RULE = ROTATION_BOX.replace(
    "gamma = 0.7", "begin gamma\n    rule = constant\n    value = 0.7\n  end")


def trace_bytes(res):
    """A run's trace, field by field, as bytes: equal only when bit for bit equal."""
    return [tuple(np.asarray(field).tobytes() for field in rec) for rec in res.trace]


@pytest.mark.parametrize("text, builds", [(ROTATION_BOX, 1), (GEOMETRIC_GAMMA, 25),
                                          (GEOMETRIC_FLAT, 1), (CONSTANT_RULE, 1)])
def test_inclusion_run_builds_one_kernel_per_stage(tmp_path, monkeypatch, text, builds):
    # A constant gamma builds and pairs one fbf kernel per run, a schedule one
    # per distinct step: a flat one runs the constant run's trace, bit for bit.
    constant = parse_problem(write(tmp_path, "c.txt", ROTATION_BOX)).run({})
    calls, pairings = [], []
    real, check = kernels.fbf_kernel, algorithms._check_pairing

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(kernels, "fbf_kernel", counted)
    monkeypatch.setattr(algorithms, "_check_pairing", lambda *a: pairings.append(a) or check(*a))
    res = parse_problem(write(tmp_path, "r.txt", text)).run({})
    assert res.iterations == 25 and len(calls) == len(pairings) == builds
    assert [r.gamma for r in res.trace] == [max(0.2, 0.7 * 0.99 ** n) if builds > 1 else 0.7
                                            for n in range(25)]
    if builds == 1:
        assert trace_bytes(res) == trace_bytes(constant)


def test_geometric_gamma_rule_called_once_per_iteration(tmp_path, monkeypatch):
    # gamma_n travels in K_n's fold: the run checks the rule's two ends, then
    # reads it once per step.
    calls, real = [], cli._schedule_from_block

    def counted(block):
        rule = real(block)
        return (lambda n: calls.append(n) or rule(n)) if callable(rule) else rule

    monkeypatch.setattr(cli, "_schedule_from_block", counted)
    pf = parse_problem(write(tmp_path, "g.txt", GEOMETRIC_GAMMA))
    calls.clear()  # the parse reads the rule's ends
    res = pf.run({})
    assert res.iterations == 25 and calls == [0, math.inf] + list(range(25))


# No B, a monotone affine A and a geometric gamma: every run takes 25 steps.
NO_B_GEOMETRIC = GEOMETRIC_GAMMA.split("begin A")[0] + """\
begin A
  name = affine
  matrix = [[0.5, 1.0], [-1.0, 0.5]]
  offset = [-0.5, 0.5]
end
begin kernel""" + GEOMETRIC_GAMMA.split("begin kernel")[1]


@pytest.mark.parametrize("algo", ["weak", "strong"])
def test_fbf_kernel_without_b_runs_the_identity_kernel(tmp_path, monkeypatch, algo):
    # With no B to fold, 'kernel fbf' builds no fbf_kernel: its run is the
    # identity kernel's, byte for byte.
    builds, real = [], kernels.fbf_kernel
    monkeypatch.setattr(kernels, "fbf_kernel", lambda *a: builds.append(a) or real(*a))
    fbf, identity = (
        parse_problem(write(tmp_path, f"{name}.txt", NO_B_GEOMETRIC.replace("fbf", name)))
        .run({"algo": algo}) for name in ("fbf", "identity"))
    assert not builds and fbf.iterations == 25
    assert trace_bytes(fbf) == trace_bytes(identity)


# Two weak files that the weak checks reject, each with the variant of a
# file that parses.  Run with --algo weak without those checks, the first
# (a kernel epsilon of 1.5, no B) converged, and the second (a lambda floor
# of 0.01 below epsilon = 0.05) failed only at n = 5.
ALGO_PARITY = [
    (MINIMAL.replace("begin solver",
                     "begin kernel\n  name = fbf\n  epsilon = 1.5\nend\nbegin solver"),
     "fbf", "epsilon = 1.5 outside ]0, alpha/(beta + 1)[ = ]0, 1.0["),
    (ROTATION_BOX.replace("epsilon = 0.2\n  gamma", "epsilon = 0.05\n  " + geometric(
        "lambda", 1.0, 0.01) + "\n  gamma"),
     "strong", "relaxation lambda_inf = 0.01 outside [epsilon, 2 - epsilon] = [0.05, 1.95]"),
]


@pytest.mark.parametrize("text, other, message", ALGO_PARITY,
                         ids=["kernel_epsilon", "lambda_floor"])
def test_algo_takes_the_checks_of_the_variant_it_runs(tmp_path, capsys, monkeypatch,
                                                      text, other, message):
    # A weak file and a file of another variant run with --algo weak exit 1
    # with the same message, before any iteration, and write no trace.
    monkeypatch.setattr(algorithms, "solve_weak", lambda *a: pytest.fail("weak ran"))
    weak = write(tmp_path, "weak.txt", text)
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        parse_problem(weak)
    moved = write(tmp_path, f"{other}.txt", text.replace("variant = weak", f"variant = {other}"))
    parse_problem(moved)
    errors = []
    for args in (["--problem", weak], ["--problem", moved, "--algo", "weak"]):
        trace = tmp_path / "t.csv"
        assert main(["run", *args, "--trace", str(trace)]) == EXIT_USAGE
        errors.append(capsys.readouterr().err)
        assert not trace.exists()
    assert errors == [f"error: {message}\n"] * 2


@pytest.mark.parametrize("form", ["variant", "algo"])
@pytest.mark.parametrize("algo", ["strong", "tseng"])
def test_relax_is_refused_by_runs_that_read_no_lambda(tmp_path, capsys, monkeypatch,
                                                      algo, form):
    # A strong or tseng run reads no lambda: --relax exits 1 before iteration
    # 0 and writes no trace, for the file's variant and for --algo alike.
    # Without it, the generated file's own lambda = 1.0 is ignored and it runs.
    text = generate_problem("inclusion", 3, 1)
    if form == "variant":
        args = [write(tmp_path, "p.txt", text.replace("variant = weak", f"variant = {algo}"))]
    else:
        args = [write(tmp_path, "p.txt", text), "--algo", algo]
    trace = tmp_path / "t.csv"
    args = ["run", "--problem", *args, "--max-iter", "20", "--trace", str(trace),
            "--summary", str(tmp_path / "s.json")]
    with monkeypatch.context() as m:
        m.setattr(algorithms, f"solve_{algo}", lambda *a: pytest.fail(f"{algo} ran"))
        assert main([*args, "--relax", "1.5"]) == EXIT_USAGE
    assert capsys.readouterr().err == (f"error: variant {algo} reads no relaxation lambda; "
                                       "--relax applies to weak, fbf and coupled runs\n")
    assert not trace.exists()
    assert main(args) in (EXIT_OK, EXIT_MAX_ITER) and trace.exists()


GENERATED_3 = generate_problem("inclusion", 3, 0)


def test_a_relax_key_in_the_file_is_not_lambda(tmp_path):
    # Only --relax is another name for lambda: a file's relax key leaves the
    # solver block's lambda = 1.0 in place, and the run is the run without it.
    stray = _bad(GENERATED_3, "lambda = 1.0", "lambda = 1.0\n  relax = 0.5")
    res = parse_problem(write(tmp_path, "stray.txt", stray)).run({})
    assert res.trace and all(rec.lam == 1.0 for rec in res.trace)
    assert run_artifacts(tmp_path, "stray", stray) == run_artifacts(tmp_path, "plain", GENERATED_3)


def _captured_weak_config(monkeypatch):
    seen = []
    real = algorithms.solve_weak
    monkeypatch.setattr(algorithms, "solve_weak",
                        lambda m, k, p, cfg, x0: seen.append(cfg) or real(m, k, p, cfg, x0))
    return seen


@pytest.mark.parametrize("flag, value, field", [
    ("--relax", 0.5, "relaxation"), ("--max-iter", 7, "max_iter"),
    ("--tol-residual", 1e-3, "tol_residual"), ("--tol-step", 1e-3, "tol_step")])
def test_a_flag_replaces_its_config_field(tmp_path, monkeypatch, flag, value, field):
    path = write(tmp_path, "p.txt", GENERATED_3)
    pf = parse_problem(path)
    seen = _captured_weak_config(monkeypatch)
    main(["run", "--problem", path, flag, str(value), "--trace", str(tmp_path / "t.csv"),
          "--summary", str(tmp_path / "s.json")])
    assert seen == [dataclasses.replace(pf.config, **{field: value})]
    if field == "relaxation":
        assert all(rec.lam == 0.5 for rec in pf.run({"relax": value}).trace)


def test_run_without_overrides_runs_the_file_config(tmp_path, monkeypatch):
    # A value of None is a flag not given.
    pf = parse_problem(write(tmp_path, "p.txt", GENERATED_3))
    seen = _captured_weak_config(monkeypatch)
    pf.run({})
    pf.run({"algo": None, "relax": None, "max_iter": None})
    assert seen == [pf.config, pf.config]


@pytest.mark.parametrize("overrides, message", [
    ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
    ({"tol_residual": -1.0}, "tolerances must be positive"),
    ({"tol_step": 0.0}, "tolerances must be positive"),
    ({"algo": "strong", "relax": 1.5}, "variant strong reads no relaxation lambda; "
     "--relax applies to weak, fbf and coupled runs"),
])
def test_invalid_overrides_raise_the_config_messages(tmp_path, overrides, message):
    pf = parse_problem(write(tmp_path, "p.txt", GENERATED_3))
    with pytest.raises(ConfigurationError) as exc:
        pf.run(overrides)
    assert str(exc.value) == message


@pytest.mark.parametrize("epsilon", ["-0.3", "0"])
def test_a_kernel_epsilon_outside_its_range_fails_at_parse(tmp_path, capsys, epsilon):
    # Only an absent kernel epsilon means the solver's; a given one is checked.
    text = re.sub(r"(begin kernel\n  name = fbf\n  epsilon = )\S+", rf"\g<1>{epsilon}",
                  GENERATED_3)
    path = write(tmp_path, "k.txt", text)
    message = f"epsilon = {float(epsilon)} outside ]0, alpha/(beta + 1)[ = ]0, 1.0["
    with pytest.raises(ConfigurationError) as exc:
        parse_problem(path)
    assert str(exc.value) == message
    trace = tmp_path / "t.csv"
    assert main(["run", "--problem", path, "--trace", str(trace)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not trace.exists()


@pytest.mark.parametrize("block, key, message", [
    ("primal", "alpha", "primal block 0 declares (alpha, chi) = (2.0, 1.0)"),
    ("primal", "chi", "primal block 0 declares (alpha, chi) = (1.0, 2.0)"),
    ("dual", "beta", "dual block 0 declares (beta, kappa) = (2.0, 1.0)"),
    ("dual", "kappa", "dual block 0 declares (beta, kappa) = (1.0, 2.0)"),
])
def test_a_coupled_stage_constant_other_than_one_fails_at_parse(tmp_path, capsys,
                                                                 block, key, message):
    # A file gives no stage operators, so its blocks' stage constants must be 1.
    sym = "F" if block == "primal" else "W"
    message += f" but no stage operators {sym} were supplied"
    text = generate_problem("coupled", 2, 0)
    head = f"begin {block}\n  dim = 2\n"
    path = write(tmp_path, "c.txt", _bad(text, head, f"{head}  {key} = 2.0\n"))
    with pytest.raises(ConfigurationError) as exc:
        parse_problem(path)
    assert str(exc.value) == message
    trace = tmp_path / "t.csv"
    assert main(["run", "--problem", path, "--trace", str(trace)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not trace.exists()
    for one in ("1", "1.0"):
        parse_problem(write(tmp_path, "c1.txt", _bad(text, head, f"{head}  {key} = {one}\n")))


# The kernel's epsilon (0.3) exceeds the solver's (0.05): a weak run's
# default step comes from 0.3, a tseng run's from 0.05.
EPSILON_SPLIT = ROTATION_BOX.split("begin kernel")[0] + """\
begin kernel
  name = fbf
  epsilon = 0.3
end
begin solver
  variant = weak
  epsilon = 0.05
end
"""


def run_artifacts(tmp_path, name, text, *args):
    """(exit code, trace bytes, summary bytes) of a CLI run of ``text``."""
    trace, summary = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
    code = main(["run", "--problem", write(tmp_path, f"{name}.txt", text), *args,
                 "--trace", str(trace), "--summary", str(summary)])
    return code, trace.read_bytes(), summary.read_bytes()


@pytest.mark.parametrize("variant, algo", [("tseng", "weak"), ("weak", "tseng")])
def test_algo_override_is_the_run_of_that_variant(tmp_path, variant, algo):
    # The default step follows the algorithm run, not the file's variant.
    native = run_artifacts(tmp_path, "native", EPSILON_SPLIT.replace("variant = weak", f"variant = {algo}"))
    assert native[0] == EXIT_OK
    other = EPSILON_SPLIT.replace("variant = weak", f"variant = {variant}")
    assert run_artifacts(tmp_path, "override", other, "--algo", algo) == native


def test_geometric_lambda_block(tmp_path):
    text = HALVING.replace("  lambda = 1.0\n", "  begin lambda\n    rule = geometric\n"
                           "    start = 1.5\n    factor = 0.8\n    floor = 0.5\n  end\n")
    res = parse_problem(write(tmp_path, "lam.txt", text)).run({})
    assert len(res.trace) > 5
    assert [r.lam for r in res.trace] == [max(0.5, 1.5 * 0.8 ** n) for n in range(len(res.trace))]


def test_additive_policy_perturbs_the_first_point(tmp_path):
    text = MINIMAL.replace("begin solver", "begin policy\n  kind = additive\n  scale = 0.5\n"
                           "  rate = 0.5\nend\nbegin solver")
    res = parse_problem(write(tmp_path, "add.txt", text)).run({})
    assert res.converged
    np.testing.assert_array_equal(res.trace[0].x_tilde, [2.0, 0.0] + 0.5 * np.ones(2) / np.sqrt(2))


@pytest.mark.parametrize("start, flat", [
    ("x = [0.5]\n  v_star = [0.25]", [0.5, 0.5 - 2.0, 0.25]),
    ("x = [0.5]\n  y = [3.0]\n  v_star = [0.25]", [0.5, 3.0, 0.25]),
], ids=["lifted-y", "given-y"])
def test_coupled_start_block(tmp_path, start, flat):
    # Without y, the start is lifted to (x, L x - r, v*).
    text = COUPLED_SCALAR.replace("begin solver", f"begin start\n  {start}\nend\nbegin solver")
    res = parse_problem(write(tmp_path, "start.txt", text)).run({})
    assert res.converged
    np.testing.assert_array_equal(res.trace[0].x, flat)


def test_generated_coupled_run_solves_on_blockwise_maps(tmp_path, monkeypatch):
    # Every block of a generated coupled problem is linear: the per-block loop never runs.
    calls, solve_block = [], kernels.solve_base_inclusion

    def loop(*args):
        calls.append(args)
        return solve_block(*args)
    monkeypatch.setattr(kernels, "solve_base_inclusion", loop)
    pf = parse_problem(write(tmp_path, "gc.txt", generate_problem("coupled", 2, 1)))
    assert pf.run({}).converged
    assert calls == []


def test_unknown_operator_name(tmp_path, capsys):
    # Reported unquoted, after the block it names, as a configuration error
    # is; the error keeps its type.
    path = write(tmp_path, "u.txt", MINIMAL.replace("name = ball", "name = warp_drive"))
    message = ("block 'A': unknown set-valued operator 'warp_drive'; known: ['affine', "
               "'affine_set', 'ball', 'box', 'constant', 'halfspace', 'l1', "
               "'scaled_identity', 'zero']")
    with pytest.raises(UnknownOperatorError, match=f"^{re.escape(message)}$"):
        parse_problem(path)
    assert main(["run", "--problem", path]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("block, name, params, library", [
    ("A", "halfspace", "normal = [1.0, 2.0]\n  offset = 1",
     lambda: halfspace_normal_cone([1.0, 2.0], 1.0)),
    ("A", "affine_set", "matrix = [[1.0, 1.0]]\n  rhs = [1.0]",
     lambda: affine_set_normal_cone([[1.0, 1.0]], [1.0])),
    ("A", "l1", "weight = 2", lambda: l1_operator(2, 2.0)),
    ("A", "constant", "value = [0.5, -1.0]", lambda: constant_operator([0.5, -1.0])),
    ("A", "ball", "radius = 2", lambda: ball_normal_cone([0.0, 0.0], 2.0)),
    ("B", "zero_map", "", lambda: zero_map(2)),
    ("B", "identity_map", "scale = 3", lambda: identity_map(2, 3.0)),
], ids=["halfspace", "affine_set", "l1", "constant", "ball-int-radius", "zero_map",
        "identity_map"])
def test_catalog_operator_from_a_file_is_the_library_operator(tmp_path, block, name, params,
                                                              library):
    # Integer parameters (offset = 1, weight = 2, radius = 2, scale = 3) are
    # read through operators.number, as floats.
    text = (f"kind = inclusion\nx0 = [0.5, -1.5]\nbegin {block}\n  name = {name}\n"
            f"  {params}\nend\n")
    if block == "B":
        text += "begin A\n  name = zero\nend\nbegin kernel\n  name = fbf\nend\n"
    pf = parse_problem(write(tmp_path, f"{name}.txt", text))
    got, want = getattr(pf, block), library()
    assert type(got) is type(want) and got.dim == want.dim == 2
    rng = np.random.default_rng(29)
    for _ in range(20):
        x, g = rng.normal(size=2) * 3, float(rng.uniform(0.1, 3.0))
        if block == "A":
            assert got.resolvent(g, x).tobytes() == want.resolvent(g, x).tobytes()
        else:
            assert got(x).tobytes() == want(x).tobytes() and got.lipschitz == want.lipschitz


def _bad(base, old, new):
    assert old in base
    return base.replace(old, new, 1)


GEOMETRIC_MINIMAL = MINIMAL.replace(
    "gamma = 1.0", "begin gamma\n    rule = geometric\n    start = 1.0\n"
    "    factor = 0.9\n    floor = 0.5\n  end")


@pytest.mark.parametrize("text, message", [
    (_bad(MINIMAL, "x0 = [2.0, 0.0]", "x0 ="), "line 2, column 5: empty value"),
    (_bad(MINIMAL, "[2.0, 0.0]", "[2.0, 0.0] 1.0"),
     "line 2, column 16: trailing text after value: '1.0'"),
    (MINIMAL + "end\n", "line 15, column 1: 'end' without matching 'begin'"),
    (_bad(MINIMAL, "begin A", "begin A B"), "line 3, column 1: expected 'begin <name>'"),
    (_bad(MINIMAL, "radius = 1.0", "radius 1.0"),
     "line 6, column 3: expected 'key = value', 'begin <name>' or 'end', got 'radius 1.0'"),
    (_bad(MINIMAL, "x0 =", "x 0 ="), "line 2, column 1: bad key 'x 0'"),
    (_bad(MINIMAL, "x0 =", "kind = inclusion\nx0 ="),
     "line 2, column 1: duplicate key 'kind' in block 'root'"),
    (_bad(MINIMAL, "variant = weak", "variant = we@k"),
     "line 9, column 13: cannot parse value 'we@k'"),
    (_bad(MINIMAL, "tol_step = 1e-09\nend\n", "tol_step = 1e-09\n"),
     "unclosed block 'solver' at end of file"),
    (_bad(MINIMAL, "kind = inclusion", "kind = nope"),
     "kind must be 'inclusion' or 'coupled', got 'nope'"),
    (_bad(MINIMAL, "variant = weak", "variant = nope"),
     "unknown solver variant 'nope'; known: weak, strong, fbf, tseng"),
    (MINIMAL + "begin kernel\n  name = nope\nend\n",
     "unknown kernel 'nope'; known: identity, fbf"),
    (_bad(MINIMAL, "x0 = [2.0, 0.0]\n", ""), "inclusion problem needs 'x0' or 'dim'"),
    (_bad(MINIMAL, "x0 =", "dim = 3\nx0 ="), "x0 has length 2, dim says 3"),
    (_bad(MINIMAL, "begin A", "begin C"), "inclusion problem needs a 'begin A' block"),
    (_bad(COUPLED_SCALAR, "begin solver", "begin start\n  x = [0.5, 0.5]\n  v_star = [0.0]\n"
          "end\nbegin solver"), "expected a stacked vector of length 1, got 2"),
    (_bad(COUPLED_SCALAR, "begin dual", "begin other"),
     "coupled problem needs 'primal' and 'dual' blocks"),
    (_bad(GEOMETRIC_MINIMAL, "factor = 0.9", "factor = 1.5"),
     "geometric factor must lie in ]0, 1], got 1.5"),
    (_bad(GEOMETRIC_MINIMAL, "rule = geometric", "rule = nope"),
     "unknown schedule rule 'nope'; known: constant, geometric"),
], ids=["empty-value", "text-after-list", "end-without-begin", "bad-begin", "no-equals",
        "bad-key", "duplicate-key", "bad-value", "unclosed-block", "bad-kind",
        "unknown-variant", "unknown-kernel", "no-x0-no-dim", "x0-dim-mismatch", "no-A",
        "stacked-length", "no-dual", "geometric-factor", "unknown-rule"])
def test_malformed_file_exits_1_with_its_message(tmp_path, capsys, text, message):
    trace = tmp_path / "t.csv"
    assert main(["run", "--problem", write(tmp_path, "bad.txt", text),
                 "--trace", str(trace)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not trace.exists()


@pytest.mark.parametrize("key", ["lambda", "gamma"])
@pytest.mark.parametrize("block_first", [False, True], ids=["key-first", "block-first"])
def test_key_and_block_of_one_name_is_a_parse_error(tmp_path, capsys, key, block_first):
    # Neither is dropped in favour of the other: the file must give one.
    block = f"  begin {key}\n    rule = constant\n    value = 1.0\n  end"
    lines = [f"  {key} = 0.9", block][::-1 if block_first else 1]
    text = _bad(MINIMAL, "  gamma = 1.0", "\n".join(lines))
    line = 14 if block_first else 11
    message = f"line {line}, column 3: {key!r} in block 'solver' is both a key and a block"
    prob = write(tmp_path, "both.txt", text)
    with pytest.raises(ProblemFormatError, match=f"^{re.escape(message)}$"):
        parse_problem(prob)
    trace = tmp_path / "t.csv"
    assert main(["run", "--problem", prob, "--trace", str(trace)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not trace.exists()


def test_roundtrip_parse_serialize_parse(tmp_path):
    for text in (MINIMAL, COUPLED_SCALAR, HALVING):
        pf = ProblemFile(parse_text(text))
        text2 = pf.serialize()
        pf2 = ProblemFile(parse_text(text2))
        assert pf == pf2
        assert pf2.serialize() == text2


# Characters of the value grammar, number tokens, a non-tab whitespace and
# an integer literal past float range.
FUZZ_PIECES = list("[],  \t01.5e-+_x") + [
    "1", "-2", "3.5", "1e5", "1_000", "nan", "-inf", "\x0c", "1" * 400]


def _bracket_outcome(parse, s):
    try:
        value, end = parse(s, 0, 3, 7)
    except ProblemFormatError as exc:
        return "error", str(exc)
    return "value", repr(value), end


def test_bracket_parser_matches_oracle_on_fuzzed_strings():
    rng = random.Random(2019)
    kinds = set()
    for _ in range(20000):
        body = "".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(0, 12)))
        s = "[" + body + "]" * rng.randint(0, 2)
        got = _bracket_outcome(cli._parse_bracket, s)
        assert got == _bracket_outcome(bracket_oracle, s), s
        kinds.add(got[1].split(": ")[1][:10] if got[0] == "error" else "value")
    assert kinds == {"value", "expected a", "unterminat"}


def test_bracket_parser_matches_oracle_on_fuzzed_matrices():
    # Lists of lists with odd gaps, trailing commas, bad tokens and missing
    # or extra brackets: the parser must agree with the oracle whether json
    # or the grammar's own loop reads the list.
    rng = random.Random(2020)
    gaps = ["", " ", "\t", ",", " ,", ", ", ",,", "\x0c", " , "]
    tokens = ["1", "-2.5", "3e2", "", " ", "x", "1_0", "nan", "7.0", " 4 "]
    kinds = set()
    for _ in range(20000):
        rows = []
        for _ in range(rng.randint(0, 3)):
            body = rng.choice(["", ","]).join(rng.choice(tokens) for _ in range(rng.randint(0, 3)))
            rows.append("[" + rng.choice(["", " "]) + body + rng.choice(["", ",", " "])
                        + "]" * rng.choice([1, 1, 1, 0, 2]))
        s = ("[" + rng.choice(gaps) + rng.choice([",", ", ", " ,", "", " "]).join(rows)
             + rng.choice(gaps) + "]" * rng.choice([1, 1, 0, 2]) + rng.choice(["", " x", "]", ",1"]))
        got = _bracket_outcome(cli._parse_bracket, s)
        assert got == _bracket_outcome(bracket_oracle, s), s
        kinds.add(got[0])
    assert kinds == {"value", "error"}


# Tokens and gaps where JSON and the grammar part ways: JSON-only values and
# blanks, and number forms that only one of the two reads.
JSON_ITEMS = ["1", "-2", "3.5", "1e5", "", " ", "x", "true", "false", "null", '"a"', "{}",
              '{"a": 1}', ":", "NaN", "Infinity", "-Infinity", "00", "1e400", "1" * 5000]
JSON_GAPS = ["", "", " ", "\t", "\n", "\r", "\r\n"]


def _json_fuzz_list(rng, depth):
    items = []
    for _ in range(rng.randint(0, 3)):
        if depth < 2 and rng.random() < 0.3:
            items.append(_json_fuzz_list(rng, depth + 1))
        else:
            items.append(rng.choice(JSON_GAPS) + rng.choice(JSON_ITEMS) + rng.choice(JSON_GAPS))
    sep = rng.choice([",", ",", ", ", " ,", ",\n", "\r,", ":", ",,"])
    return "[" + rng.choice(JSON_GAPS) + sep.join(items) + rng.choice(["", "", ","]) + "]"


def test_bracket_parser_matches_oracle_on_json_tokens():
    # Every guard character of the json attempt must keep a list that JSON
    # reads, but the grammar rejects, away from json.
    rng = random.Random(2021)
    decoder = json.JSONDecoder()
    kinds, json_only = set(), 0
    for _ in range(20000):
        s = _json_fuzz_list(rng, 0) + rng.choice(["", "", "]", " x"])
        got = _bracket_outcome(cli._parse_bracket, s)
        want = _bracket_outcome(bracket_oracle, s)
        assert got == want, s
        kinds.add(got[0])
        try:
            value, end = decoder.raw_decode(s, 0)
            json_only += ("value", repr(value), end) != want
        except ValueError:
            pass
    assert kinds == {"value", "error"}
    assert json_only > 1000, json_only


@pytest.mark.parametrize("kind, dim", [("inclusion", 200), ("coupled", 20)])
def test_parse_text_matches_oracle_on_generated(monkeypatch, kind, dim):
    text = generate_problem(kind, dim, 3)
    fast = parse_text(text).canonical()
    monkeypatch.setattr(cli, "_parse_bracket", bracket_oracle)
    assert fast == parse_text(text).canonical()


def test_parse_text_holds_a_long_list_line_about_twice():
    # A list is read in place from its '[': besides the text, the d = 200 matrix
    # line is held as its line and its value slice, not also stripped twice.
    text = generate_problem("inclusion", 200, 1)
    longest = max(map(len, text.splitlines()))
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        root = parse_text(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(root.child("B").get("matrix")) == 200
    assert (peak - kept) / longest < 3, (peak - kept) / longest


@pytest.mark.parametrize("kind, dim", [("inclusion", 2), ("inclusion", 20), ("inclusion", 200),
                                       ("coupled", 2), ("coupled", 20)])
def test_generated_files_hold_only_json_lists(tmp_path, monkeypatch, kind, dim):
    def loop(s, i, lineno, col0):
        raise AssertionError(f"line {lineno}: a list reached the grammar's loop")

    monkeypatch.setattr(cli, "_parse_list", loop)
    with pytest.raises(AssertionError, match="line 1: a list reached"):
        parse_text("x = [1.0,]\n")
    for seed in range(4):
        pf = parse_problem(write(tmp_path, f"{seed}.txt", generate_problem(kind, dim, seed)))
        assert pf.kind == kind and pf.dim == dim * (1 if kind == "inclusion" else 4)


# Where a value sits in its line: text before it, text after it, line end.
VALUE_LAYOUTS = {
    "indented": ("    x0 = ", "", "\n"),
    "tab-indented": ("\tx0 = ", "", "\n"),
    "no-spaces": ("x0=", "", "\n"),
    "comment": ("x0 = ", "  # a comment", "\n"),
    "crlf": ("x0 = ", "", "\r\n"),
}
# A malformed value, its message, and the index in it of the character the
# error's column names (an empty value's column is past its blanks).
BAD_VALUES = {
    "bad-item": ("[1, x]", "expected a number, got 'x'", 4),
    "text-after-list": ("[1, 2] 3", "trailing text after value: '3'", 6),
    "empty": ("", "empty value", 0),
    "two-words": ("foo bar", "cannot parse value 'foo bar'", 0),
    "unterminated": ("[1, 2", "unterminated '['", 5),
}


@pytest.mark.parametrize("layout", VALUE_LAYOUTS)
@pytest.mark.parametrize("bad", BAD_VALUES)
def test_a_bad_value_names_its_column_in_every_layout(layout, bad):
    before, after, newline = VALUE_LAYOUTS[layout]
    value, message, index = BAD_VALUES[bad]
    column = len(before) + index + 1 + (0 if value else len(after) - len(after.lstrip()))
    text = newline.join(["kind = inclusion", before + value + after, "dim = 2", ""])
    with pytest.raises(ProblemFormatError) as exc:
        parse_text(text)
    assert str(exc.value) == f"line 2, column {column}: {message}"


def test_coupled_scalar_file_solves(tmp_path):
    pf = parse_problem(write(tmp_path, "c.txt", COUPLED_SCALAR))
    res = pf.run({})
    assert res.converged
    np.testing.assert_allclose(res.x.x.flatten(), [1.0], atol=1e-6)
    np.testing.assert_allclose(res.x.v_star.flatten(), [-1.0], atol=1e-6)


def test_halving_trace_rows_halve(tmp_path):
    prob = write(tmp_path, "h.txt", HALVING)
    trace, summary = tmp_path / "h.csv", tmp_path / "h.json"
    code = main(["run", "--problem", prob, "--trace", str(trace), "--summary", str(summary)])
    assert code == EXIT_MAX_ITER  # 20 iterations never reach 1e-12
    rows = trace.read_text().strip().splitlines()
    assert rows[0].split(",")[:6] == ["n", "residual", "step_norm", "theta", "sigma", "rho"]
    assert len(rows) == 21
    residuals = [float(r.split(",")[1]) for r in rows[1:]]
    for a, b in zip(residuals, residuals[1:]):
        assert abs(b - 0.5 * a) <= 1e-15
    rec = json.loads(summary.read_text())
    assert rec["status"] == "max_iter" and rec["exit_code"] == EXIT_MAX_ITER


MEMORY_POLICY = ROTATION_BOX.replace("begin solver", "begin policy\n  kind = memory\n"
                                     "  weights = [-0.3, 1.3]\nend\nbegin solver") + """\
begin solution
  x = [0.5, 0.5]
end
"""
INCLUSION3 = generate_problem("inclusion", 3, 0)
CLI_RUNS = [(INCLUSION3, {}), (INCLUSION3, {"algo": "strong", "max_iter": 100}),
            (INCLUSION3, {"algo": "tseng"}),
            (MEMORY_POLICY, {}),
            (generate_problem("coupled", 2, 1), {})]
CLI_RUN_IDS = ["weak", "strong-capped", "tseng", "memory", "coupled"]


@pytest.mark.parametrize("text, overrides", CLI_RUNS, ids=CLI_RUN_IDS)
def test_cli_artifacts_are_those_of_a_run_keeping_graph_points(tmp_path, text, overrides):
    # The parse's config keeps no graph points; one that keeps them writes the same bytes.
    outputs = []
    for keep in (False, True):
        pf = parse_problem(write(tmp_path, "p.txt", text))
        assert pf.config.keep_graph_points is False
        pf.config = dataclasses.replace(pf.config, keep_graph_points=keep)
        paths = [tmp_path / f"{keep}.csv", tmp_path / f"{keep}.json"]
        outputs.append((cli.run_problem(pf, dict(overrides), *map(str, paths)),
                        *(p.read_bytes() for p in paths)))
    assert outputs[0] == outputs[1] and outputs[0][0] in (EXIT_OK, EXIT_MAX_ITER)


@pytest.mark.parametrize("text, overrides", CLI_RUNS, ids=CLI_RUN_IDS)
def test_cli_records_hold_iterates_and_scalars_but_no_graph_points(tmp_path, text, overrides):
    pf = parse_problem(write(tmp_path, "p.txt", text))
    lean = pf.run(overrides)
    pf.config = dataclasses.replace(pf.config, keep_graph_points=True)
    full = pf.run(overrides)
    assert all(rec.y is None and rec.y_star is None for rec in lean.trace)
    assert all(isinstance(rec.y, np.ndarray) and isinstance(rec.y_star, np.ndarray)
               for rec in full.trace)
    assert trace_bytes(lean) == [tuple(np.asarray(field).tobytes() for field in
                                       rec._replace(y=None, y_star=None)) for rec in full.trace]


def test_trace_rows_are_17_digit_floats(tmp_path):
    # Each row is "%d" then "%.17g" per float; gap_k is |x_n - z_k| for the
    # recorded iterate x_n, one column per known zero.
    rec = algorithms.IterationRecord(
        n=3, x=np.zeros(2), x_tilde=None, y=None, y_star=None, step_norm=0.1, residual=5e-324,
        theta=-0.0, sigma=1e300, rho=-1 / 3, lam=1.0, gamma=1.0)
    trace = algorithms.Trace()
    trace.append(*rec)
    result = algorithms.SolveResult(x=None, trace=trace, status="max_iter",
                                    stop_reason="", iterations=1)
    row = ("3,4.9406564584124654e-324,0.10000000000000001,-0,1.0000000000000001e+300,"
           "-0.33333333333333331")
    path = tmp_path / "t.csv"
    cli.write_trace(result, path, [np.array([2 / 3, 0.0]), [0.0, -3.0]])
    assert path.read_text().splitlines() == [
        "n,residual,step_norm,theta,sigma,rho,gap_1,gap_2", row + ",0.66666666666666663,3"]
    cli.write_trace(result, path)
    assert path.read_text().splitlines() == ["n,residual,step_norm,theta,sigma,rho", row]


@pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 600])
def test_trace_written_in_blocks_is_the_whole_csv(tmp_path, rows):
    # Rows go out in blocks of 256; the file holds the bytes of the CSV joined whole.
    rng = np.random.default_rng(rows)
    trace = algorithms.Trace()
    for n in range(rows):
        x = rng.normal(size=3)
        trace.append(n, x, x, None, None, *rng.normal(size=5), 1.0, 1.0)
    zeros = [rng.normal(size=3), np.zeros(3)]
    result = algorithms.SolveResult(x=None, trace=trace, status="max_iter",
                                    stop_reason="", iterations=rows)
    lines = ["n,residual,step_norm,theta,sigma,rho,gap_1,gap_2\n"]
    for rec in trace:
        lines.append("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
            rec.n, rec.residual, rec.step_norm, rec.theta, rec.sigma, rec.rho,
            *(algorithms._length(rec.x - z) for z in zeros)))
    path = tmp_path / "t.csv"
    cli.write_trace(result, path, zeros)
    assert path.read_bytes() == "".join(lines).encode()


def test_rerun_is_byte_identical(tmp_path):
    prob = write(tmp_path, "h.txt", HALVING)
    for name in ("a", "b"):
        main(["run", "--problem", prob, "--trace", str(tmp_path / f"{name}.csv"),
              "--summary", str(tmp_path / f"{name}.json")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_exit_code_converged(tmp_path):
    prob = write(tmp_path, "m.txt", MINIMAL)
    code = main(["run", "--problem", prob, "--trace", str(tmp_path / "t.csv"),
                 "--summary", str(tmp_path / "s.json")])
    assert code == EXIT_OK


def test_non_monotone_affine_map_rejected_before_any_iteration(tmp_path, capsys):
    prob = write(tmp_path, "i.txt", NON_MONOTONE_FORWARD)
    code = main(["run", "--problem", prob, "--trace", str(tmp_path / "t.csv"),
                 "--summary", str(tmp_path / "s.json")])
    assert code == EXIT_USAGE
    assert "not monotone" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_exit_code_infeasible(tmp_path, capsys):
    # The catalog rejects this forward part, so a user oracle declares it
    # monotone; the Haugazeau cuts then turn disjoint.
    text = NON_MONOTONE_FORWARD.replace("[[2.0, 0.0], [1.5, 0.0]]", "[[1.0, 0.0], [0.0, 1.0]]")
    pf = ProblemFile(parse_text(text))
    M = np.array([[2.0, 0.0], [1.5, 0.0]])
    pf.B = SingleValuedOperator(2, lambda x: M @ x, lipschitz=np.linalg.norm(M, 2),
                                monotone=True, name="user")
    code = cli.run_problem(pf, {}, str(tmp_path / "t.csv"), str(tmp_path / "s.json"))
    assert code == EXIT_INFEASIBLE
    assert "iteration 2:" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_exit_code_numerical_failure(tmp_path, capsys):
    prob = write(tmp_path, "o.txt", OVERFLOWING)
    parse_problem(prob)  # the file itself is valid
    with np.errstate(over="ignore"):  # the overflow is the point of the fixture
        code = main(["run", "--problem", prob, "--trace", str(tmp_path / "t.csv"),
                     "--summary", str(tmp_path / "s.json")])
    assert code == EXIT_NUMERICAL
    assert "output of affine_map contains NaN or Inf" in capsys.readouterr().err


def test_non_monotone_affine_rejected_before_any_iteration(tmp_path, capsys):
    prob = write(tmp_path, "d.txt", DIVERGING)
    code = main(["run", "--problem", prob, "--trace", str(tmp_path / "t.csv"),
                 "--summary", str(tmp_path / "s.json")])
    assert code == EXIT_USAGE
    assert "not monotone" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_non_finite_affine_map_matrix_is_usage_error(tmp_path, capsys, entry):
    # Rejected before its SVD, whose LinAlgError would lose the exit code.
    text = NON_MONOTONE_FORWARD.replace("[[2.0, 0.0], [1.5, 0.0]]", f"[[{entry}, 0.0], [0.0, 1.0]]")
    code = main(["run", "--problem", write(tmp_path, "n.txt", text),
                 "--trace", str(tmp_path / "t.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: block 'B': affine map matrix contains NaN or Inf\n"
    assert not (tmp_path / "t.csv").exists()


def test_non_finite_affine_set_matrix_is_usage_error(tmp_path, capsys):
    # Rejected before the SVD of its pseudo-inverse, which would not converge.
    text = MINIMAL.replace("name = ball\n  center = [0.0, 0.0]\n  radius = 1.0",
                           "name = affine_set\n  matrix = [[nan, 1.0]]\n  rhs = [1.0]")
    code = main(["run", "--problem", write(tmp_path, "n.txt", text),
                 "--trace", str(tmp_path / "t.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: block 'A': affine set matrix contains NaN or Inf\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("text, good, bad, named", [
    (NON_MONOTONE_FORWARD, "lo = [-1.0, -1.0]", "lo = affine_set", "'lo' in block 'A'"),
    (NON_MONOTONE_FORWARD, "matrix = [[2.0, 0.0], [1.5, 0.0]]", "matrix = zero",
     "'matrix' in block 'B'"),
    (COUPLED_SCALAR, "name = scaled_identity\n    scale = 1.0",
     "name = affine\n    matrix = fbf", "'matrix' in block 'A'"),
], ids=["box-lo", "affine-map-matrix", "coupled-affine-matrix"])
def test_word_for_a_numeric_operator_parameter_is_usage_error(tmp_path, capsys, text, good, bad,
                                                               named):
    # A word never reaches the catalog builder, whose float conversion would raise a ValueError.
    assert text.count(good) >= 1
    code = main(["run", "--problem", write(tmp_path, "w.txt", text.replace(good, bad, 1)),
                 "--trace", str(tmp_path / "t.csv")])
    assert code == EXIT_USAGE
    word = bad.split(" = ")[-1]
    assert capsys.readouterr().err == (
        f"error: {named} must be a number or a list of numbers, got {word!r}\n")
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("matrix", [
    "[[1.0, 0.0], [0.0]]",  # ragged
    "[[1.0, 0.0], 2]",
    "[1.0, [0.0]]",
])
def test_malformed_matrix_is_usage_error(tmp_path, capsys, matrix):
    text = NON_MONOTONE_FORWARD.replace("[[2.0, 0.0], [1.5, 0.0]]", matrix)
    code = main(["run", "--problem", write(tmp_path, "m.txt", text)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'matrix' in block 'B' is not a" in err and "Traceback" not in err


SCALARS = """\
kind = inclusion
dim = 2
begin A
  name = ball
  radius = 1.0
end
begin solver
  max_iter = 100
end
"""


@pytest.mark.parametrize("good, bad, named", [
    ("dim = 2", "dim = foo", "'dim' in block 'root'"),
    ("dim = 2", "dim = -1", "'dim' in block 'root'"),
    ("max_iter = 100", "max_iter = lots", "'max_iter' in block 'solver'"),
    ("radius = 1.0", "radius = [1.0]", "block 'A': 'radius'"),
])
def test_malformed_scalar_is_usage_error(tmp_path, capsys, good, bad, named):
    args = ["--trace", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")]
    assert main(["run", "--problem", write(tmp_path, "ok.txt", SCALARS), *args]) == EXIT_OK
    code = main(["run", "--problem", write(tmp_path, "m.txt", SCALARS.replace(good, bad)), *args])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("variant", ["strong", "weak"])
def test_zero_forward_matrix_projects_onto_box(tmp_path, variant):
    prob = write(tmp_path, "z.txt", ZERO_FORWARD.replace("strong", variant))
    summary = tmp_path / "s.json"
    code = main(["run", "--problem", prob, "--trace", str(tmp_path / "t.csv"),
                 "--summary", str(summary)])
    assert code == EXIT_OK
    assert json.loads(summary.read_text())["final_point"] == [-1.0]


@pytest.mark.parametrize("variant", ["strong", "weak"])
def test_underflowing_forward_matrix_is_numerical_failure(tmp_path, capsys, variant):
    text = ZERO_FORWARD.replace("[[0.0]]", "[[1e-300]]").replace("strong", variant)
    code = main(["run", "--problem", write(tmp_path, "u.txt", text),
                 "--trace", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")])
    assert code == EXIT_NUMERICAL
    assert "underflowed to 0" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["strong", "weak"])
def test_overflowing_cut_of_a_finite_graph_point_is_numerical_failure(tmp_path, capsys, variant):
    # y* = x0 - P_box x0 = 1e200 - 1 is finite; theta and sigma = |y*|^2 overflow.
    text = ZERO_FORWARD.replace("[-2.2]", "[1.0e200]").replace("strong", variant)
    text = text.replace("begin B\n  name = affine_map\n  matrix = [[0.0]]\nend\n", "")
    text = text.replace("begin kernel\n  name = fbf\nend\n", "")
    code = main(["run", "--problem", write(tmp_path, "o.txt", text),
                 "--trace", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")])
    assert code == EXIT_NUMERICAL
    assert "step norm nan" in capsys.readouterr().err


def test_exit_code_parse_error(tmp_path):
    prob = write(tmp_path, "p.txt", "kind = inclusion\nbegin A\n")
    code = main(["run", "--problem", prob])
    assert code == EXIT_USAGE


def test_exit_code_bad_usage():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing --problem
    assert exc.value.code == EXIT_USAGE


def test_cli_overrides(tmp_path):
    prob = write(tmp_path, "m.txt", MINIMAL)
    code = main(["run", "--problem", prob, "--max-iter", "1",
                 "--trace", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")])
    assert code == EXIT_MAX_ITER
    rec = json.loads((tmp_path / "s.json").read_text())
    assert rec["iterations"] == 1


def test_generate_is_deterministic_and_solvable(tmp_path):
    text1 = generate_problem("inclusion", 4, 11)
    text2 = generate_problem("inclusion", 4, 11)
    assert text1 == text2
    prob = write(tmp_path, "g.txt", text1)
    pf = parse_problem(prob)
    res = pf.run({})
    assert res.converged
    z = pf.zeros[0]
    assert np.linalg.norm(res.x - z) <= 1e-6
    gaps = [float(np.linalg.norm(rec.x - z)) for rec in res.trace]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-10


@pytest.mark.parametrize("kind", ["inclusion", "coupled"])
@pytest.mark.parametrize("dim", [1, 3, 20])
def test_generated_file_is_a_fixed_point_of_parse_and_serialize(kind, dim):
    for seed in range(3):
        text = generate_problem(kind, dim, seed)
        assert ProblemFile(parse_text(text)).serialize() == text


def test_generate_coupled_matches_embedded_solution(tmp_path):
    text = generate_problem("coupled", 2, 5)
    prob = write(tmp_path, "gc.txt", text)
    pf = parse_problem(prob)
    res = pf.run({})
    assert res.converged
    z = pf.zeros[0]
    diff = np.linalg.norm(res.x.x.flatten() - z.x.flatten())
    diffv = np.linalg.norm(res.x.v_star.flatten() - z.v_star.flatten())
    assert diff <= 1e-5 and diffv <= 1e-5


def test_generate_coupled_dim_2_is_unchanged():
    # sha256 of the problem part, and the solution, as written before --dim
    # applied to coupled problems; the solution is compared to roundoff since
    # it comes from a dense solve.
    text = generate_problem("coupled", 2, 5)
    head, solution = text.split("begin solution")
    assert hashlib.sha256(head.encode()).hexdigest() == \
        "c9c9419a35b9d55e1dcaca7d713fa132ecd352f8775e7325fe35900a6a56b4e6"
    sol = ProblemFile(parse_text(text)).zeros[0]
    np.testing.assert_allclose(
        sol.x, [-0.29091942995070846, -0.24039798003494722, -0.2760601256856857,
                -0.5014211611899592], rtol=1e-12)
    np.testing.assert_allclose(sol.v_star, [0.24130818514823027, -0.15248104894018583],
                               rtol=1e-12)


def test_generate_coupled_uses_dim(tmp_path):
    pf = parse_problem(write(tmp_path, "c3.txt", generate_problem("coupled", 3, 1)))
    assert pf.problem.layout.dims == (3, 3, 3, 3)
    res = pf.run({})
    assert res.converged
    assert np.linalg.norm(res.x.flat - pf.zeros[0].flat) <= 1e-5


@pytest.mark.parametrize("kind", ["inclusion", "coupled"])
@pytest.mark.parametrize("dim", ["0", "-1"])
def test_generate_rejects_nonpositive_dim(tmp_path, capsys, kind, dim):
    out = tmp_path / "g.txt"
    assert main(["generate", "--kind", kind, "--dim", dim, "--out", str(out)]) == EXIT_USAGE
    assert "--dim must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_generate_cli_subcommand(tmp_path):
    out = str(tmp_path / "gen.txt")
    code = main(["generate", "--kind", "inclusion", "--dim", "3", "--seed", "2",
                 "--out", out])
    assert code == EXIT_OK
    code = main(["run", "--problem", out, "--trace", str(tmp_path / "t.csv"),
                 "--summary", str(tmp_path / "s.json")])
    assert code == EXIT_OK


def test_identity_kernel_with_forward_part_rejected(tmp_path):
    text = MINIMAL.replace(
        "begin solver",
        "begin B\n  name = affine_map\n  matrix = [[0.0, 1.0], [-1.0, 0.0]]\nend\nbegin solver")
    with pytest.raises(ConfigurationError):
        parse_problem(write(tmp_path, "k.txt", text))


def test_algo_weak_override_cannot_drop_the_forward_part(tmp_path, capsys):
    # The zero is (0.5, 0); an identity kernel would solve without B and
    # report the projection (1, 0) of x0 as converged.
    text = MINIMAL.replace("gamma = 1.0", "").replace("variant = weak", "variant = fbf").replace(
        "begin solver",
        "begin B\n  name = affine_map\n  matrix = [[1, 0], [0, 1]]\n  offset = [-0.5, 0]\n"
        "end\nbegin solver")
    prob = write(tmp_path, "f.txt", text)
    assert main(["run", "--problem", prob, "--algo", "weak"]) == EXIT_USAGE
    assert "identity kernel cannot absorb" in capsys.readouterr().err
    np.testing.assert_allclose(parse_problem(prob).run({}).x, [0.5, 0.0], atol=1e-8)


def test_policy_blocks_parse(tmp_path):
    text = MINIMAL.replace(
        "begin solver",
        "begin policy\n  kind = inertial\n  alpha = 0.3\nend\nbegin solver")
    pf = parse_problem(write(tmp_path, "pol.txt", text))
    assert pf.policy == algorithms.PerturbationPolicy.inertial(0.3)
    res = pf.run({})
    assert res.converged


INERTIAL_POLICY = "begin policy\n  kind = inertial\n  alpha = 0.9\nend\nbegin solver"


def test_tseng_rejects_a_policy_before_any_iteration(tmp_path, capsys, monkeypatch):
    # solve_tseng takes no policy, so running one would drop it silently.
    monkeypatch.setattr(algorithms, "solve_tseng", lambda *a: pytest.fail("tseng ran"))
    tseng = ROTATION_BOX.replace("variant = weak", "variant = tseng")
    prob = write(tmp_path, "tseng.txt", tseng.replace("begin solver", INERTIAL_POLICY))
    with pytest.raises(ConfigurationError, match="variant tseng runs no perturbation policy"):
        parse_problem(prob)
    weak = write(tmp_path, "weak.txt", ROTATION_BOX.replace("begin solver", INERTIAL_POLICY))
    for args in (["--problem", prob], ["--problem", weak, "--algo", "tseng"]):
        trace = tmp_path / "t.csv"
        assert main(["run", *args, "--trace", str(trace)]) == EXIT_USAGE
        assert "variant tseng runs no perturbation policy" in capsys.readouterr().err
        assert not trace.exists()
    # A kind = none block is no policy: the run goes ahead.
    none = tseng.replace("begin solver", "begin policy\n  kind = none\nend\nbegin solver")
    pf = parse_problem(write(tmp_path, "none.txt", none))
    assert pf.policy == algorithms.PerturbationPolicy()


def test_tseng_without_a_forward_part_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # The file's variant and --algo take the same check, before any iteration.
    monkeypatch.setattr(algorithms, "solve_tseng", lambda *a: pytest.fail("tseng ran"))
    prob = write(tmp_path, "tseng.txt", MINIMAL.replace("variant = weak", "variant = tseng"))
    with pytest.raises(ConfigurationError, match="variant tseng needs a forward operator B"):
        parse_problem(prob)
    weak = write(tmp_path, "weak.txt", MINIMAL)
    for args in (["--problem", prob], ["--problem", weak, "--algo", "tseng"]):
        trace = tmp_path / "t.csv"
        assert main(["run", *args, "--trace", str(trace)]) == EXIT_USAGE
        assert "variant tseng needs a forward operator B" in capsys.readouterr().err
        assert not trace.exists()


def test_empty_x0_is_a_parse_error(tmp_path):
    # scaled_identity takes any dimension, so an empty x0 would "converge".
    text = HALVING.replace("x0 = [1.0, 1.0]", "x0 = []")
    prob = write(tmp_path, "empty.txt", text)
    with pytest.raises(ProblemFormatError, match="'x0' must not be empty"):
        parse_problem(prob)
    assert main(["run", "--problem", prob, "--trace", str(tmp_path / "t.csv")]) == EXIT_USAGE
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("block, error, message", [
    ("kind = bogus", ConfigurationError, "unknown policy kind 'bogus'"),
    ("kind = inertial", ProblemFormatError, "missing required key 'alpha'"),
    ("kind = additive\n  scale = 1.0\n  rate = 1.0", ConfigurationError,
     r"rate must lie in \[0, 1\["),
    ("kind = memory\n  weights = [0.5, 0.4]", ConfigurationError,
     r"memory weight row sums to 0.9, must be 1 within 1e-12"),
], ids=["unknown-kind", "missing-alpha", "additive-rate", "memory-row-sum"])
def test_bad_policy_block_fails_at_parse(tmp_path, block, error, message):
    # The policy is built once, by the parser, so a bad block exits 1 before any run.
    text = MINIMAL.replace("begin solver", f"begin policy\n  {block}\nend\nbegin solver")
    prob = write(tmp_path, "bad_policy.txt", text)
    with pytest.raises(error, match=message):
        parse_problem(prob)
    assert main(["run", "--problem", prob, "--trace", str(tmp_path / "t.csv")]) == EXIT_USAGE
    assert not (tmp_path / "t.csv").exists()


def test_geometric_schedule_block(tmp_path):
    text = """\
kind = inclusion
x0 = [2.0, 0.0]
begin A
  name = ball
  radius = 1.0
end
begin solver
  variant = weak
  begin gamma
    rule = geometric
    start = 2.0
    factor = 0.9
    floor = 0.5
  end
  max_iter = 300
  tol_residual = 1e-09
  tol_step = 1e-09
end
"""
    pf = parse_problem(write(tmp_path, "geo.txt", text))
    res = pf.run({})
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-8)
    assert res.trace[0].gamma == 2.0
    assert res.trace[1].gamma == 1.8


def test_summary_final_point_shape_coupled(tmp_path):
    prob = write(tmp_path, "c.txt", COUPLED_SCALAR)
    code = main(["run", "--problem", prob, "--trace", str(tmp_path / "t.csv"),
                 "--summary", str(tmp_path / "s.json")])
    assert code == EXIT_OK
    rec = json.loads((tmp_path / "s.json").read_text())
    assert "kt_residuals" in rec
    np.testing.assert_allclose(rec["final_point"]["x"][0], [1.0], atol=1e-6)


@pytest.mark.parametrize("call, message", [
    (lambda: generate_problem("nope", 2, 0), "unknown problem kind 'nope'"),
    (lambda: ProblemFile(parse_text(_bad(COUPLED_SCALAR, "variant = coupled", "variant = weak"))),
     "a coupled problem runs with variant 'coupled', got 'weak'"),
    (lambda: ProblemFile(parse_text(COUPLED_SCALAR)).run({"algo": "strong"}),
     "a coupled problem runs with variant 'coupled', got 'strong'"),
], ids=["generate-kind", "coupled-variant-at-parse", "coupled-variant-at-run"])
def test_guard_raises_its_type_and_message(call, message):
    with pytest.raises(ConfigurationError) as exc:
        call()
    assert type(exc.value) is ConfigurationError and str(exc.value) == message


@pytest.mark.parametrize("algo", [None, "weak", "strong", "fbf", "tseng"])
def test_a_coupled_file_runs_only_the_coupled_variant(tmp_path, capsys, algo):
    # Without --algo, the file's solver block asks for variant weak.
    text = COUPLED_SCALAR if algo else _bad(COUPLED_SCALAR, "variant = coupled", "variant = weak")
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    args = ["run", "--problem", write(tmp_path, "c.txt", text), "--trace", str(trace),
            "--summary", str(summary)]
    assert main(args + (["--algo", algo] if algo else [])) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: a coupled problem runs with variant 'coupled', got {algo or 'weak'!r}\n")
    assert not trace.exists() and not summary.exists()


def test_a_solution_of_the_wrong_length_fails_at_parse(tmp_path, capsys):
    # Its gap column cannot be computed: the file exits 1 before any iteration.
    prob = write(tmp_path, "s.txt", MINIMAL + "begin solution\n  x = [1.0, 0.0, 0.0]\nend\n")
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    assert main(["run", "--problem", prob, "--trace", str(trace),
                 "--summary", str(summary)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: solution x has length 3, dim says 2\n"
    assert not trace.exists() and not summary.exists()
