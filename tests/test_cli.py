import json
import random

import numpy as np
import pytest
from oracles import bracket_oracle

from warpsplit import cli
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

# The catalog affine_map does not check the monotonicity it declares; this
# non-monotone forward part makes the two Haugazeau cuts disjoint at n = 2.
INFEASIBLE_TRIGGER = """\
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


def test_exit_code_infeasible(tmp_path):
    prob = write(tmp_path, "i.txt", INFEASIBLE_TRIGGER)
    code = main(["run", "--problem", prob, "--trace", str(tmp_path / "t.csv"),
                 "--summary", str(tmp_path / "s.json")])
    assert code == EXIT_INFEASIBLE


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
    text = INFEASIBLE_TRIGGER.replace("[[2.0, 0.0], [1.5, 0.0]]", matrix)
    code = main(["run", "--problem", write(tmp_path, "m.txt", text)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'matrix' in block 'B' is not a" in err and "Traceback" not in err


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
    gaps = [rec.fejer_gaps[0] for rec in res.trace]
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


def test_policy_blocks_parse(tmp_path):
    text = MINIMAL.replace(
        "begin solver",
        "begin policy\n  kind = inertial\n  alpha = 0.3\nend\nbegin solver")
    pf = parse_problem(write(tmp_path, "pol.txt", text))
    res = pf.run({})
    assert res.converged


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
