"""Contract fuzzer: mutated problem files through ``cli.main``.

Each case is a generated inclusion or coupled problem file, or a hand-written
one (every catalog operator, each policy kind, geometric ``gamma`` and
``lambda`` blocks, two coupled files), with one to three random edits (a
number or a word replaced, a line deleted or duplicated, a list made longer
or shorter), run in process by ``warpsplit run`` with a random ``--algo``, a
capped ``--max-iter`` and warnings as errors.  The contract: every call
returns an exit code from 0 to 4 and raises nothing, a run that exits 0 or 2
writes its trace and its summary, and one that exits 1 writes neither.  An
unedited source never exits 3 (infeasible cuts), whatever ``--algo``.  A
source with one number replaced by ``nan``, ``inf`` or ``-inf`` exits 1.

The draws come from the stdlib ``random`` with fixed seeds, so a Tier-1 run
(about 2 s) always tries the same files.  A failure names its seed and case;
``--seed N --start K --cases 1 --seconds 0`` replays case K of seed N.  A finding is
mended in the library, never filtered out of the generator.  Run longer as a
script:

    PYTHONPATH=src python tests/test_contract_fuzz.py --seconds 60 [--seed N]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import re
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest

from warpsplit import cli

ALGOS = (None, "weak", "strong", "fbf", "tseng", "coupled")
MAX_ITER = "40"
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
WORD = re.compile(r"[A-Za-z_]+")
NUMBERS = ("0", "-0.0", "1", "-1", "2", "0.5", "-3.5", "1e-320", "1e6", "1e308", "-1e308",
           "1.7976931348623157e308", "nan", "inf", "-inf", "10000000000000000000000", "3_0")
WORDS = ("box", "ball", "halfspace", "affine_set", "l1", "zero", "scaled_identity", "affine",
         "constant", "affine_map", "zero_map", "identity_map", "fbf", "identity", "weak",
         "strong", "tseng", "coupled", "inclusion", "primal", "dual", "coupling", "solver",
         "kernel", "policy", "solution", "gamma", "lambda", "rule", "geometric", "begin", "end",
         "dim", "x0", "lo", "hi", "matrix", "offset", "r", "s_star", "v_star", "name", "kind",
         "variant", "epsilon", "max_iter", "nan", "true", "none", "xyzzy")
GENERATED = (("inclusion", 2), ("inclusion", 3), ("coupled", 1), ("coupled", 2))


def _inclusion(A, B="affine_map", *extra):
    """A d = 2 inclusion file: set part A, forward part B (or none) and further blocks."""
    B = {"affine_map": "name = affine_map\n  matrix = [[1.0, 0.5], [-0.5, 1.0]]\n"
                       "  offset = [0.3, -0.2]",
         "zero_map": "name = zero_map",
         "identity_map": "name = identity_map\n  scale = 0.5"}.get(B)
    blocks = [f"begin A\n  {A}\nend"] + ([f"begin B\n  {B}\nend", "begin kernel\n  name = fbf\n"
                                           "  epsilon = 0.2\nend"] if B else [])
    return "\n".join(["kind = inclusion", "dim = 2", *blocks, *extra]) + "\n"


BOX = "name = box\n  lo = [-1.0, -0.5]\n  hi = [1.0, 0.5]"
SOLVER = "begin solver\n  variant = weak\n  epsilon = 0.2\n{}end"
COUPLED_BOX = """\
kind = coupled
begin primal
  dim = 2
  s_star = [0.6, -0.4]
  begin A
    name = box
    lo = [-0.5, -0.5]
    hi = [0.5, 0.5]
  end
end
begin primal
  dim = 1
  s_star = [0.3]
  begin A
    name = affine
    matrix = [[1.5]]
  end
end
begin dual
  dim = 2
  r = [0.2, -0.1]
  begin B
    name = affine
    matrix = [[1.0, 0.2], [0.2, 0.8]]
  end
end
begin coupling
  primal = 1
  dual = 1
  matrix = [[1.0, 0.5], [-0.3, 1.0]]
end
begin coupling
  primal = 2
  dual = 1
  matrix = [[0.4], [-0.6]]
end
begin solver
  variant = coupled
end
"""
COUPLED_LINEAR = """\
kind = coupled
begin primal
  dim = 2
  s_star = [1.0, -0.5]
  begin A
    name = scaled_identity
    scale = 1.5
  end
end
begin primal
  dim = 1
  s_star = [0.4]
  begin A
    name = zero
  end
end
begin dual
  dim = 2
  r = [0.3, -0.2]
  begin B
    name = scaled_identity
    scale = 2.0
  end
end
begin dual
  dim = 1
  begin B
    name = constant
    value = [0.5]
  end
end
begin coupling
  primal = 1
  dual = 1
  matrix = [[1.0, 0.5], [-0.3, 1.0]]
end
begin coupling
  primal = 2
  dual = 1
  matrix = [[0.4], [-0.6]]
end
begin coupling
  primal = 2
  dual = 2
  matrix = [[0.7]]
end
begin solver
  variant = coupled
end
"""
# Hand-written sources, with no digit in any key, so that a number edit lands on a value:
# every catalog operator, each policy kind, geometric gamma and lambda blocks, and the two
# hand-written coupled files of CI's console step.
HANDWRITTEN = {
    "box": _inclusion(BOX),
    "ball": _inclusion("name = ball\n  center = [0.5, 0.0]\n  radius = 1.0"),
    "halfspace": _inclusion("name = halfspace\n  normal = [1.0, 1.0]\n  offset = 0.5"),
    "affine_set": _inclusion("name = affine_set\n  matrix = [[1.0, 1.0]]\n  rhs = [0.5]"),
    "l1": _inclusion("name = l1\n  weight = 0.5"),
    "zero": _inclusion("name = zero"),
    "scaled_identity": _inclusion("name = scaled_identity\n  scale = 1.5"),
    "affine": _inclusion("name = affine\n  matrix = [[1.0, 0.5], [-0.5, 1.0]]\n"
                         "  offset = [0.2, -0.1]", None),
    "constant": _inclusion("name = constant\n  value = [0.5, -0.5]"),
    "zero_map": _inclusion(BOX, "zero_map"),
    "identity_map": _inclusion(BOX, "identity_map"),
    "policy none": _inclusion(BOX, "affine_map", "begin policy\n  kind = none\nend"),
    "policy inertial": _inclusion(BOX, "affine_map", "begin policy\n  kind = inertial\n"
                                  "  alpha = 0.3\nend"),
    "policy memory": _inclusion(BOX, "affine_map", "begin policy\n  kind = memory\n"
                                "  weights = [-0.3, 1.3]\nend"),
    "policy additive": _inclusion(BOX, "affine_map", "begin policy\n  kind = additive\n"
                                  "  scale = 0.1\n  rate = 0.5\nend"),
    "geometric gamma": _inclusion(BOX, "affine_map", SOLVER.format(
        "  begin gamma\n    rule = geometric\n    start = 0.7\n    factor = 0.99\n"
        "    floor = 0.2\n  end\n")),
    "geometric lambda": _inclusion(BOX, "affine_map", SOLVER.format(
        "  begin lambda\n    rule = geometric\n    start = 1.5\n    factor = 0.9\n"
        "    floor = 1.0\n  end\n")),
    "coupled box": COUPLED_BOX,
    "coupled linear": COUPLED_LINEAR,
}
SOURCES = GENERATED + tuple(HANDWRITTEN)


def generated(kind, dim, seed):
    return cli.generate_problem(kind, dim, seed).splitlines()


def source_lines(rng):
    """(kind, lines) of a source drawn by ``rng``: a generated file, or a hand-written one."""
    source = rng.choice(SOURCES)
    if source in HANDWRITTEN:
        text = HANDWRITTEN[source]
        return ("coupled" if text.startswith("kind = coupled") else "inclusion"), text.splitlines()
    kind, dim = source
    return kind, generated(kind, dim, rng.randrange(1000))


def _replace(rng, lines, pattern, pool):
    hits = [(i, m) for i, line in enumerate(lines) for m in pattern.finditer(line)]
    if hits:
        i, m = rng.choice(hits)
        lines[i] = lines[i][:m.start()] + rng.choice(pool) + lines[i][m.end():]


def _resize(rng, lines):
    """One list one item longer or shorter: an item inserted or deleted after a '['."""
    hits = [(i, m.end()) for i, line in enumerate(lines) for m in re.finditer(r"\[", line)]
    if not hits:
        return
    i, at = rng.choice(hits)
    line = lines[i]
    if rng.random() < 0.5:
        lines[i] = line[:at] + rng.choice(NUMBERS) + ", " + line[at:]
    else:
        lines[i] = line[:at] + re.sub(r"^[^,\[\]]*,?\s*", "", line[at:], count=1)


def mutate(rng, lines):
    """``lines`` with one random edit, in place; most edits keep the file's structure."""
    edit = rng.choices(("number", "word", "delete", "duplicate", "resize"), (8, 2, 1, 1, 3))[0]
    if edit == "number":
        _replace(rng, lines, NUMBER, NUMBERS)
    elif edit == "word":
        _replace(rng, lines, WORD, WORDS)
    elif edit == "delete":
        del lines[rng.randrange(len(lines))]
    elif edit == "duplicate":
        i = rng.randrange(len(lines))
        lines.insert(i, lines[i])
    else:
        _resize(rng, lines)


def cases(seed, count, start=0):
    """(label, text, algo) of cases start .. start + count - 1 of ``seed``."""
    for k in range(start, start + count):
        rng = random.Random(f"{seed}:{k}")
        kind, lines = source_lines(rng)
        for _ in range(rng.randint(1, 3)):
            mutate(rng, lines)
        # Mostly an --algo the kind runs, so that most edits reach the solver.
        fits = (None, "coupled") if kind == "coupled" else ALGOS[:5]
        yield f"seed {seed} case {k}", "\n".join(lines) + "\n", rng.choice(
            fits if rng.random() < 0.8 else ALGOS)


def non_finite_cases(seed, count, start=0):
    """(label, text) of cases start .. start + count - 1 of ``seed``, each a source with one
    number replaced by nan, inf or -inf."""
    for k in range(start, start + count):
        rng = random.Random(f"non-finite {seed}:{k}")
        _, lines = source_lines(rng)
        _replace(rng, lines, NUMBER, ("nan", "inf", "-inf"))
        yield f"non-finite seed {seed} case {k}", "\n".join(lines) + "\n"


def run(workdir, text, algo):
    """(exit code, trace written, summary written) of ``warpsplit run`` on ``text``."""
    problem, trace, summary = (workdir / name for name in ("p.txt", "p.csv", "p.json"))
    for path in (trace, summary):
        path.unlink(missing_ok=True)
    problem.write_text(text, encoding="utf-8")
    args = ["run", "--problem", str(problem), "--trace", str(trace), "--summary", str(summary),
            "--max-iter", MAX_ITER] + (["--algo", algo] if algo else [])
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        code = cli.main(args)
    return code, trace.exists(), summary.exists()


def breaches(workdir, label, text, algo, expected=(0, 1, 2, 3, 4)):
    """The contract's breaches by one case, which must exit with a code in ``expected``:
    an empty list when it holds."""
    try:
        code, traced, summarized = run(workdir, text, algo)
    except (Exception, SystemExit) as exc:  # a warning raised as an error is a finding too
        return [f"{label} (--algo {algo}): raised {type(exc).__name__}: {exc}"]
    if code not in expected:
        return [f"{label} (--algo {algo}): exit code {code!r}, expected one of {expected}"]
    if code in (0, 2) and not (traced and summarized):
        return [f"{label} (--algo {algo}): exit {code} without its trace and summary"]
    if code == 1 and (traced or summarized):
        return [f"{label} (--algo {algo}): exit 1 with a trace or a summary written"]
    return []


@pytest.mark.parametrize("kind, dim", GENERATED)
def test_unedited_generated_files_never_exit_infeasible(tmp_path, kind, dim):
    text = cli.generate_problem(kind, dim, 7)
    for algo in ALGOS:
        code, traced, summarized = run(tmp_path, text, algo)
        assert code in (0, 1, 2, 4) and (traced and summarized or code not in (0, 2)), algo


@pytest.mark.parametrize("name", HANDWRITTEN)
def test_unedited_hand_written_sources_run_and_never_exit_infeasible(tmp_path, name):
    # Each source is a valid file with a zero, so that most edits reach the solver.
    for algo in ALGOS:
        code, traced, summarized = run(tmp_path, HANDWRITTEN[name], algo)
        assert code in ((0, 2) if algo is None else (0, 1, 2, 4)), algo
        assert traced and summarized or code not in (0, 2), algo


@pytest.mark.parametrize("seed", [0, 1])
def test_one_non_finite_number_exits_1_before_any_iteration(tmp_path, seed):
    found = [b for label, text in non_finite_cases(seed, 150)
             for b in breaches(tmp_path, label, text, None, expected=(1,))]
    assert found == []


@pytest.mark.parametrize("seed", [0, 1])
def test_mutated_files_keep_the_exit_code_contract(tmp_path, seed):
    found = [b for label, text, algo in cases(seed, 300) for b in breaches(tmp_path, label, text, algo)]
    assert found == []


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=60.0,
                   help="start no further seed after this (0: one seed)")
    p.add_argument("--seed", type=int, default=2, help="first seed (Tier-1 runs 0 and 1)")
    p.add_argument("--cases", type=int, default=300, help="cases per seed")
    p.add_argument("--start", type=int, default=0, help="first case of each seed")
    args = p.parse_args(argv)
    t0, tried, found, seed = time.perf_counter(), 0, [], args.seed
    with tempfile.TemporaryDirectory(prefix="warpsplit-fuzz-") as tmp:
        while True:
            runs = [(label, text, algo, (0, 1, 2, 3, 4))
                    for label, text, algo in cases(seed, args.cases, args.start)]
            runs += [(label, text, None, (1,))
                     for label, text in non_finite_cases(seed, args.cases, args.start)]
            for label, text, algo, expected in runs:
                tried += 1
                for breach in breaches(Path(tmp), label, text, algo, expected):
                    found.append(breach)
                    print(breach, "\n" + text, flush=True)
            seed += 1
            if time.perf_counter() - t0 >= args.seconds:
                break
    print(f"{tried} cases from seeds {args.seed}..{seed - 1} in {time.perf_counter() - t0:.1f} s: "
          f"{len(found)} breaches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
