"""Mutation check: every named source edit must make the Tier-1 suite fail.

Run from anywhere, with the interpreter that runs the tests:

    python tests/mutants.py             # all mutants
    python tests/mutants.py --list      # their names
    python tests/mutants.py NAME ...    # the named mutants only

Each mutant is one literal edit of a file under ``src/warpsplit``.  It is
applied to a fresh copy of the repository in a temporary directory, and the
Tier-1 suite (``PYTHONPATH=src python -m pytest -q``) runs there, stopping at
its first failure.  A mutant is killed when the suite fails.  The unmutated
copy runs first and must pass, and must import the package from its own
``src``.  The exit status is 1 when a mutant survives or the check cannot run.

Tier-1 includes ``tests/test_mutant_anchors.py``, which requires each
mutant's text to occur exactly once in the source, so that a refactor that
moves an anchor fails at once.  A mutated copy no longer holds its own
anchor, so the mutant runs leave that file out.

pytest does not collect this file: its name does not match ``test_*.py``.
A surviving mutant is a gap in the suite: mend it with a test, and keep the
mutant.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/warpsplit, text that occurs exactly once there, its replacement)
MUTANTS = [
    ("kt-skew-minus-id-sign", "algorithms.py",
     "np.concatenate((self.coupling, -np.eye(nz)), 1)",
     "np.concatenate((self.coupling, np.eye(nz)), 1)"),
    ("skew-norm-power-of-two-scaling", "operators.py",
     "    T = np.ldexp(S, -e)\n",
     "    T, e = S, 0\n"),
    ("pairing-layout-check", "kernels.py",
     "    kernel._check_set_part(m.set_part)\n    g_fold, B_fold = kernel.fold or (None, None)\n",
     "    g_fold, B_fold = kernel.fold or (None, None)\n"),
    ("pairing-forward-identity", "kernels.py",
     "    if B_fold is not m.forward_part:\n",
     "    if False:\n"),
    ("pairing-dimension-check", "kernels.py",
     "    if m.dim != kernel.dim:\n",
     "    if False:\n"),
    # The plan's run key: a run is blocks of one R shape, scalar or d_b x d_b.
    ("linear-maps-run-key-size", "kernels.py",
     "            if key != R.shape:",
     "            if key is None or len(key) != R.ndim:"),
    # A scalar R stays one coefficient per coordinate, never a d_b x d_b matrix.
    ("linear-maps-no-densify", "kernels.py",
     "            R, s = np.asarray(R), np.asarray(s)\n",
     "            R, s = np.asarray(R) * (np.eye(A.dim) if np.ndim(R) == 0 else 1.0), np.asarray(s)\n"),
    # A step of None is the step K_n was folded with, not 1.
    ("iterate-step-none-is-fold-step", "algorithms.py",
     "                    kern.fold[0] if kern.fold is not None else 1.0)\n",
     "                    1.0)\n"),
    ("iterate-step-floor", "algorithms.py",
     "                    if not gamma >= floor:",
     "                    if False:"),
    ("relaxation-range", "algorithms.py",
     "    if not (epsilon - slack <= lam <= 2.0 - epsilon + slack):",
     "    if not (0.0 < lam < 2.0):"),
    ("fbf-step-epsilon-bound", "kernels.py",
     "    if not 0 < epsilon < bound:",
     "    if not 0 < epsilon < alpha:"),
    # A declared strong monotonicity must be > 0, as a declared Lipschitz constant must.
    ("declared-modulus-positive", "operators.py",
     "        if strong_monotonicity is not None and not strong_monotonicity > 0:\n",
     "        if False:\n"),
    # The symmetric part of a finite matrix is formed without overflow, by blocks of rows past
    # 16 rows and in one expression up to 16.
    ("monotone-symmetric-part-no-overflow", "operators.py",
     "    S = 0.5 * M\n    for a in range(0, n, 16):\n        S[a:a + 16] += 0.5 * M[:, a:a + 16].T\n",
     "    S = 0.5 * (M + M.T)\n"),
    ("monotone-symmetric-part-no-overflow-small", "operators.py",
     "        return 0.5 * M + 0.5 * M.T\n",
     "        return 0.5 * (M + M.T)\n"),
    ("monotone-spectrum-reject", "operators.py",
     "    if eig[0] < -1e-12 * max(1.0, -eig[0], eig[-1]):",
     "    if False:"),
    # A large matrix is certified monotone only by a Cholesky factorisation that completes ...
    ("monotone-failed-cholesky-certifies", "operators.py",
     "    except np.linalg.LinAlgError:\n        return False\n",
     "    except np.linalg.LinAlgError:\n        return True\n"),
    # ... whose Frobenius norm, past the float range, is inf with no overflow warning ...
    ("monotone-cholesky-norm-overflow-silenced", "operators.py",
     '    with np.errstate(over="ignore"):  # |S|_F past the float range is inf: so is delta\n',
     "    if True:\n"),
    # ... and its modulus, computed when first read, is the smallest eigenvalue.
    ("lazy-modulus-lowest-eigenvalue", "operators.py",
     "            lowest = float(np.linalg.eigvalsh(_symmetric_part(M))[0])\n",
     "            lowest = float(np.linalg.eigvalsh(_symmetric_part(M))[-1])\n"),
    # CutRing's one disjointness raise, in ``_enter``.  ``_swap`` raises
    # nothing: when its ratio test picks no row it returns False, and hands the
    # cut to ``_enter``, whose ratio test on the same r raises.
    ("cut-ring-disjoint-raise", "fejer.py",
     "            if k < 0:\n                raise self._disjoint(j, v)\n            lam[:p] -= part * r",
     "            if k < 0:\n                return\n            lam[:p] -= part * r"),
    ("graph-point-finite-scan", "kernels.py",
     "    if np.isfinite(y).all() and np.isfinite(y_star).all():\n        return",
     "    if True:\n        return"),
    ("graph-point-dimension-check", "kernels.py",
     '    check_dim(x_tilde, kernel.dim, "kernel %s argument", kernel.name)\n',
     ""),
    # Primal and dual blocks share one check; each mutant turns it off on one side.
    ("primal-mu-positive", "algorithms.py",
     "    if not bound > 0:",
     '    if not bound > 0 and set_name == "B":'),
    ("dual-nu-positive", "algorithms.py",
     "    if not bound > 0:",
     '    if not bound > 0 and set_name == "A":'),
    # A lifted Kuhn-Tucker pair whose L x - r overflows is refused, naming its dual block.
    ("kt-lift-finite-check", "algorithms.py",
     '            check_finite(y_j, f"dual block {j}: L x - r")\n',
     "            pass\n"),
    # A coupling norm past the float range is inf, with no overflow warning.
    ("skew-norm-overflow-silenced", "operators.py",
     '    with np.errstate(over="ignore"):\n        beta = max(',
     "    if True:\n        beta = max("),
    # ... and a coupled run on that norm is refused, naming it.
    ("coupling-norm-finite-check", "algorithms.py",
     "    if c == math.inf:  # a finite dual_scale was checked above\n",
     "    if False:\n"),
    # A Fejer gap past the float range is written as inf, with no overflow warning.
    ("trace-gap-overflow-silenced", "cli.py",
     ', np.errstate(over="ignore"):',
     ":"),
    # Only an absent kernel epsilon means the solver's; a given one <= 0 is refused.
    ("kernel-epsilon-absent-only", "cli.py",
     "eps = cfg.epsilon if self.kernel_epsilon is None else self.kernel_epsilon",
     "eps = self.kernel_epsilon if (self.kernel_epsilon or 0) > 0 else cfg.epsilon"),
    # A file's relax key is not another name for lambda.
    ("file-relax-key-ignored", "cli.py",
     'relaxation=_schedule(solver, "lambda", 1.0),',
     'relaxation=_number(solver, "relax", None) or _schedule(solver, "lambda", 1.0),'),
    # A coupled file's stage constants are checked at parse, not first at run.
    ("coupled-stage-check-at-parse", "cli.py",
     '        alg.check_identity_stages(primal, "primal")\n',
     ""),
    # A coupled file runs the coupled variant only, whether the file or --algo asks.
    ("coupled-variant-check", "cli.py",
     '            if variant != "coupled":\n',
     "            if False:\n"),
    # An inclusion file's known zero has the problem's dimension, checked at parse.
    ("solution-length-check", "cli.py",
     "            if z.shape != (self.dim,):\n",
     "            if False:\n"),
    # affine_map's matrix wider than 8 columns starts on a cache line.
    ("affine-map-aligned", "operators.py",
     "    M = aligned(M)\n",
     "    M.setflags(write=False)\n"),
    # Only an identity block at exactly 1.0 takes the unit pair, not a scaled
    # one whose coefficients multiply to 1: its solve divides by each.
    ("kernel-unit-coefficient-only", "kernels.py",
     "        if one and B is not None and c == s == 1.0:\n",
     "        if one and B is not None and c * s == 1.0:\n"),
    # A forward map or resolvent built on a user callable keeps its per-call shape check:
    # its one entry is bound, checked, at construction.
    ("prepared-pair-user-shape-check", "operators.py",
     "self._apply = fn if shaped else",
     "self._apply = fn if True else"),
    ("prepared-pair-user-resolvent-shape-check", "operators.py",
     "self._resolve = resolvent_oracle if shaped else",
     "self._resolve = resolvent_oracle if True else"),
    # A user oracle's output is copied, so the W y a general-base pair hands on is its own
    # even when the user's map reuses one buffer.
    ("prepared-pair-hand-on-shaped-only", "operators.py",
     "        y = np.array(oracle(*args), dtype=float)\n",
     "        y = np.asarray(oracle(*args), dtype=float)\n"),
    # affine_map and affine share one matrix check; finite first, before the SVD.
    ("affine-map-finite-check", "operators.py",
     "    check_finite(A, what)\n",
     ""),
    # The checked matrix is the operator's own: the caller's array is copied, after the check.
    ("monotone-matrix-own-copy", "operators.py",
     "    return (np.array(A) if A is M or A.base is not None else A), b, lowest\n",
     "    return A, b, lowest\n"),
    ("affine-set-finite-check", "operators.py",
     '    check_finite(A, "affine set matrix")  # before the SVD of pinv, which would not converge\n',
     ""),
    # The plan pair and backward_solve share one plan runner, offsets included.
    ("prepared-blockwise-offsets", "kernels.py",
     "        out -= offsets\n",
     "        pass\n"),
    # A word for a numeric catalog parameter is a format error, not a float() traceback.
    ("op-params-word-check", "cli.py",
     "        elif isinstance(v, str):\n",
     "        elif False:\n"),
    # Every number a problem file holds is finite, refused as the file is read: a NaN or an
    # infinity among the catalog's scalars, the file's scalars, its lists ...
    ("number-finite-check", "operators.py",
     "    if kind is float and not math.isfinite(out):\n",
     "    if False:\n"),
    ("number-fast-path-checked", "operators.py",
     '    try:\n        out = None if getattr(value, "ndim", 0) else kind(value)\n',
     '    if type(value) is kind:\n        return value\n'
     '    try:\n        out = None if getattr(value, "ndim", 0) else kind(value)\n'),
    ("cli-number-fast-path-checked", "cli.py",
     '    return ops.number(value, key, f"block {section.name!r}", kind)\n',
     '    return value if type(value) is kind else ops.number(value, key, "", kind)\n'),
    ("floats-finite-check", "cli.py",
     "    if not finite.all():\n",
     "    if False:\n"),
    ("catalog-scalar-finite", "cli.py",
     "            out[k] = _number(section, k)\n",
     "            out[k] = v\n"),
    # ... and, in the library, a memory row whose sum is NaN.
    ("memory-row-sum-nan", "algorithms.py",
     "    if not abs(total - 1.0) <= 1e-12:  # a NaN total fails too\n",
     "    if abs(total - 1.0) > 1e-12:\n"),
    # A fuzzer finding: a row whose sum passes the float range is refused, with no warning.
    ("memory-row-sum-overflow-silenced", "algorithms.py",
     '    with np.errstate(over="ignore"):  # a sum past the float range is inf, refused below\n',
     "    if True:\n"),
    # Fuzzer findings: a dim numpy cannot size, or cannot allocate, exits 1 ...
    ("dim-numpy-sized", "cli.py",
     "    if dim is not None and not 1 <= dim <= _MAX_DIM:\n",
     "    if dim is not None and dim < 1:\n"),
    ("parse-memory-error", "cli.py",
     "    except (WarpsplitError, OSError, MemoryError) as exc:",
     "    except (WarpsplitError, OSError) as exc:"),
    # ... and a half-space normal whose norm overflows is built with no warning.
    ("halfspace-normal-no-overflow", "operators.py",
     "    if not normal.any():",
     "    if np.linalg.norm(normal) == 0:"),
    # The library's constructors refuse a non-finite scalar, as the CLI does ...
    ("ball-radius-finite", "operators.py",
     '    radius = number(radius, "radius", "operator \'ball\'")\n',
     "    radius = float(radius)\n"),
    ("halfspace-offset-finite", "operators.py",
     '    offset = number(offset, "offset", "operator \'halfspace\'")\n',
     "    offset = float(offset)\n"),
    ("l1-weight-finite", "operators.py",
     '    weight = number(weight, "weight", "operator \'l1\'")\n',
     "    weight = float(weight)\n"),
    ("scaled-identity-scale-finite", "operators.py",
     '    scale = number(scale, "scale", "operator \'scaled_identity\'")\n',
     "    scale = float(scale)\n"),
    ("identity-map-scale-finite", "operators.py",
     '    scale = number(scale, "scale", "operator \'identity_map\'")\n',
     "    scale = float(scale)\n"),
    # ... and a half-space normal whose squared norm overflows is scaled, with no warning.
    ("halfspace-norm-overflow-silenced", "operators.py",
     '    with np.errstate(over="ignore"):\n        norm_sq = ',
     "    if True:\n        norm_sq = "),
    ("halfspace-normal-scaled", "operators.py",
     "    if norm_sq == math.inf:\n",
     "    if False:\n"),
    ("kernel-alpha-positive", "kernels.py",
     "        if not alpha > 0:\n",
     "        if False:\n"),
]

ANCHORS = "tests/test_mutant_anchors.py"  # reads the unmutated source; left out of mutant runs
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info", "out")


def tier1_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def tier1(tree: Path, mutant: bool) -> subprocess.CompletedProcess:
    """Tier-1 in ``tree``; a mutant run stops at its first failure and leaves out ANCHORS."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"] + (["-x", "--ignore", ANCHORS] if mutant else [])
    return subprocess.run(cmd, cwd=tree, env=tier1_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)


def copy_tree(dest: Path) -> Path:
    shutil.copytree(ROOT, dest, ignore=IGNORE)
    return dest


def mutated(name: str, file: str, old: str, new: str) -> str:
    """The text of ``file`` with the mutant's edit, checked to apply exactly once."""
    text = (ROOT / "src" / "warpsplit" / file).read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"mutant {name}: its text occurs {text.count(old)} times in {file}, "
                         "not once; update the mutant to the source")
    return text.replace(old, new)


def last_line(proc: subprocess.CompletedProcess) -> str:
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    return lines[-1] if lines else f"exit {proc.returncode}, no output"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("names", nargs="*", help="mutants to run (default: all)")
    p.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = p.parse_args(argv)
    if args.list:
        print("\n".join(m[0] for m in MUTANTS))
        return 0
    known = {m[0] for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        p.error(f"unknown mutants {unknown}; see --list")
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]

    edits = [(name, file, mutated(name, file, old, new)) for name, file, old, new in chosen]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="warpsplit-mutants-") as tmp:
        base = copy_tree(Path(tmp) / "unmutated")
        where = subprocess.run([sys.executable, "-c", "import warpsplit; print(warpsplit.__file__)"],
                               cwd=base, env=tier1_env(), stdout=subprocess.PIPE, text=True)
        if not Path(where.stdout.strip()).resolve().is_relative_to(base.resolve()):
            print(f"the copy imports warpsplit from {where.stdout.strip()!r}, not its own src")
            return 1
        proc = tier1(base, mutant=False)
        print(f"unmutated: {last_line(proc)}", flush=True)
        if proc.returncode != 0:
            print(proc.stdout[-4000:])
            return 1
        shutil.rmtree(base)
        survivors = []
        for name, file, text in edits:
            t0 = time.perf_counter()
            tree = copy_tree(Path(tmp) / name)
            (tree / "src" / "warpsplit" / file).write_text(text, encoding="utf-8")
            proc = tier1(tree, mutant=True)
            killed = proc.returncode != 0
            if not killed:
                survivors.append(name)
            print(f"{name}: {'killed' if killed else 'SURVIVED'} in "
                  f"{time.perf_counter() - t0:.1f} s ({last_line(proc)})", flush=True)
            shutil.rmtree(tree)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    if survivors:
        print("surviving: " + ", ".join(survivors))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
