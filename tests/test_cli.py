import hashlib
import json
import random

import numpy as np
import pytest
from oracles import bracket_oracle

from warpsplit import SingleValuedOperator, algorithms, cli, kernels
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
from warpsplit.errors import ConfigurationError, ProblemFormatError

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


@pytest.mark.parametrize("text, builds", [(ROTATION_BOX, 1), (GEOMETRIC_GAMMA, 25)])
def test_inclusion_run_builds_one_kernel_per_stage(tmp_path, monkeypatch, text, builds):
    # A constant gamma builds one fbf kernel per run, a schedule one per iteration.
    calls = []
    real = kernels.fbf_kernel

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(kernels, "fbf_kernel", counted)
    res = parse_problem(write(tmp_path, "r.txt", text)).run({})
    assert res.iterations == 25 and len(calls) == builds
    assert [r.gamma for r in res.trace] == [max(0.2, 0.7 * 0.99 ** n) if builds > 1 else 0.7
                                            for n in range(25)]


def test_unknown_operator_name(tmp_path):
    text = MINIMAL.replace("name = ball", "name = warp_drive")
    code = main(["run", "--problem", write(tmp_path, "u.txt", text)])
    assert code == EXIT_USAGE


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


def test_parse_text_matches_oracle_on_generated_d200(monkeypatch):
    text = generate_problem("inclusion", 200, 3)
    fast = parse_text(text).canonical()
    monkeypatch.setattr(cli, "_parse_bracket", bracket_oracle)
    assert fast == parse_text(text).canonical()


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


def test_trace_rows_are_17_digit_floats(tmp_path):
    # Each row is "%d" then "%.17g" per float; gap_k is |x_n - z_k| for the
    # recorded iterate x_n, one column per known zero.
    rec = algorithms.IterationRecord(
        n=3, x=np.zeros(2), x_tilde=None, y=None, y_star=None, step_norm=0.1, residual=5e-324,
        theta=-0.0, sigma=1e300, rho=-1 / 3, lam=1.0, gamma=1.0)
    result = algorithms.SolveResult(x=None, trace=[rec], status="max_iter",
                                    stop_reason="", iterations=1)
    row = ("3,4.9406564584124654e-324,0.10000000000000001,-0,1.0000000000000001e+300,"
           "-0.33333333333333331")
    path = tmp_path / "t.csv"
    cli.write_trace(result, path, [np.array([2 / 3, 0.0]), [0.0, -3.0]])
    assert path.read_text().splitlines() == [
        "n,residual,step_norm,theta,sigma,rho,gap_1,gap_2", row + ",0.66666666666666663,3"]
    cli.write_trace(result, path)
    assert path.read_text().splitlines() == ["n,residual,step_norm,theta,sigma,rho", row]


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
    assert pf.policy == algorithms.PerturbationPolicy.none()


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
