"""A catalogue of hand-made mutants that the tests must kill.

Each entry is (file under src/hecke_bose, exact old text, new text, tests).
``python tests/mutants.py`` copies src/, tests/ and pyproject.toml into a
temporary directory, checks that every entry's tests pass there unmutated,
and then, one entry at a time, replaces the old text with the new and runs
the entry's tests with ``pytest -x``.  An entry survives when its tests still
pass, and it is stale when its old text does not occur exactly once in its
file.  Either makes the run exit 1, so the catalogue follows refactors
instead of rotting.

pytest does not collect this file: its name does not match test_*.py.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

V = "tests/test_verify.py::"
P = "tests/test_propagation.py::"
HECKE_CORRUPTED = V + "test_hecke_suite_names_a_corrupted_relation"
DUALITY_CORRUPTED = V + "test_duality_suite_names_where_the_pairing_reads_a_corrupted_f"
THEOREM_CORRUPTED = V + "test_theorem_suite_names_where_H_reads_a_corrupted_G"
LEMMA_CORRUPTED = V + "test_batched_suites_name_a_corrupted_value"
CLOSED_FORM = P + "test_closed_form_propagation_matches_engine"
SOLVER_TABLE = "tests/test_bethe.py::test_solver_outcomes_pinned_per_instance"

# (name, file, old text, new text, tests)
MUTANTS = [
    ("theorem weight D^(k-d) for D^(k-1-d)", "verify.py",
     "unit ** (k - 1 - d) for d in range(k)]", "unit ** (k - d) for d in range(k)]",
     [THEOREM_CORRUPTED]),
    ("theorem d^+ zeroed", "verify.py", "- a * dp * gx)", "- a * 0 * gx)", [THEOREM_CORRUPTED]),
    ("theorem yields True", "verify.py", "yield x, lam.denominator * lhs == rhs * gx, detail",
     "yield x, True, detail", [THEOREM_CORRUPTED]),
    ("duality check without its factor D", "verify.py", "q * unit == sum(", "q == sum(",
     [DUALITY_CORRUPTED]),
    ("duality weights (D, A, C)", "verify.py", "{x: 1}, (unit, c, a))", "{x: 1}, (unit, a, c))",
     [DUALITY_CORRUPTED]),
    ("quadratic relation without -C f", "verify.py", "c * g + (unit - c) * fx",
     "c * g + unit * fx", [HECKE_CORRUPTED]),
    ("hecke suite yields True", "verify.py", "yield x, holds(*ints), detail",
     "yield x, True, detail", [HECKE_CORRUPTED]),
    ("lemma-main yields True", "verify.py", "yield x, lhs == scale_g * (unit * q + c * sum(rest))",
     "yield x, True", [LEMMA_CORRUPTED]),
    ("lemma-main A read as D", "verify.py", "- a * dp * G[x])", "- unit * dp * G[x])",
     [LEMMA_CORRUPTED]),
    ("lemma-main T_G on both sides", "verify.py", "lhs = scale_q *", "lhs = scale_g *",
     [LEMMA_CORRUPTED]),
    ("lemma-main reads a neighbour's descent", "verify.py", "= descents[x]\n",
     "= descents[x[:-1] + (x[-1] - 1,)]\n", [LEMMA_CORRUPTED]),
    ("random_rational_function unmemoized", "verify.py",
     "functools.cache(functools.partial(_value_at, zlib.crc32((\"%s|\" % seed).encode())))",
     "functools.partial(_value_at, zlib.crc32((\"%s|\" % seed).encode()))",
     ["tests/test_hamiltonian.py::test_memoized_and_unmemoized_agree"]),
    ("ints does not scale shorter words", "hecke.py",
     "top, m = tops[word], unit ** (height - len(word))", "top, m = tops[word], 1",
     [HECKE_CORRUPTED]),
    ("ints reads each word before evaluating the next", "hecke.py",
     "{word: self._evaluate(word, points)", "{word: dict(self._evaluate(word, points))",
     ["tests/test_hecke.py::test_engine_hands_out_ints_of_several_words_at_one_scale"]),
    ("keep is a no-op", "hecke.py",
     "self._layers = {word: layer for word, layer in self._layers.items() if word in wanted}",
     "pass", [V + "test_hecke_suite_holds_at_most_one_relation_beyond_the_letters"]),
    ("_rescale skips f's table", "hecke.py",
     "        for x, v in base.items():\n            base[x] = v * m\n", "",
     ["tests/test_hecke.py::test_engine_rescales_every_layer_of_the_table"]),
    ("engine term shifts swapped", "hecke.py", "zip(self.couplings[1:], (1, 0))",
     "zip(self.couplings[1:], (0, 1))", [HECKE_CORRUPTED]),
    ("closed form t -> 1 - t", "propagation.py", "t = (A + C * b) / (D * (b - a))",
     "t = 1 - (A + C * b) / (D * (b - a))", [CLOSED_FORM]),
    ("closed form Q_0 without (a/b)^L", "propagation.py", "(1 - t) * (a / b) ** L", "(1 - t)",
     [CLOSED_FORM]),
    ("closed form b^-L for (a/b)^L", "propagation.py", "(1 - t) * (a / b) ** L",
     "(1 - t) * b**-L", [CLOSED_FORM]),
    ("closed form trie rebinds the node before linking it", "propagation.py",
     "node[1][word[d]] = node = (out, {})", "node = node[1][word[d]] = (out, {})",
     [P + "test_closed_form_holds_each_word_suffix_once"]),
    ("propagate always runs the engine", "propagation.py",
     "if isinstance(f, PlaneWave) and len(set(f.p)) == len(f.p):", "if False:",
     [P + "test_propagate_chooses_the_closed_form_for_distinct_plane_waves"]),
    ("propagate unmemoized", "propagation.py", "return functools.cache(G)", "return G",
     ["tests/test_hamiltonian.py::test_memoized_and_unmemoized_agree"]),
    ("LatticeFunction export memoizes nothing", "__init__.py",
     "from functools import cache as LatticeFunction", "LatticeFunction = lambda f: f",
     ["tests/test_hamiltonian.py::test_memoized_and_unmemoized_agree"]),
    ("the CLI catches only ValueError", "cli.py",
     "except (OSError, ValueError, ArithmeticError, MemoryError) as err:",
     "except ValueError as err:", ["tests/test_cli.py::test_cli_contract_on_any_input"]),
    ("a command leaves a default on the cached parser", "cli.py",
     "    args = parser.parse_args(argv)\n",
     "    args = parser.parse_args(argv)\n"
     "    parser._subparsers._group_actions[0].choices[args.command].set_defaults(**vars(args))\n",
     ["tests/test_cli.py::test_one_parser_serves_a_sequence_of_calls"]),
    ("s_0's +-L swapped", "weyl.py", "return (x[-1] + L,) + x[1:-1] + (x[0] - L,)",
     "return (x[-1] - L,) + x[1:-1] + (x[0] + L,)", ["tests/test_weyl.py"]),
    ("rotate by -L", "weyl.py", "return (x[-1] + L,) + x[:-1]", "return (x[-1] - L,) + x[:-1]",
     ["tests/test_weyl.py"]),
    ("descent tries s_1 first", "weyl.py", "for a in range(k - 2, -1, -1):",
     "for a in range(k - 1):", [V + "test_window_suite_engine_work_is_pinned"]),
    ("T^check ignores the weight u", "laurent.py", "+ c * unit\n", "+ c\n",
     [DUALITY_CORRUPTED]),
    ("T^check drops the alpha term for j >= 50", "laurent.py", "+ c * alpha\n",
     "+ c * alpha * (j < 50)\n", ["tests/test_hecke.py::test_duality_with_divided_difference"]),
    ("T^check drops the alpha term for |j| >= 50", "laurent.py", "+ c * alpha\n",
     "+ c * alpha * (abs(j) < 50)\n",
     ["tests/test_hecke.py::test_duality_with_divided_difference"]),
    ("symmetrizer exponent shift dropped", "bethe.py", "u = min((0, *exps))", "u = 0",
     ["tests/test_bethe.py"]),
    ("symmetrizer without the (prod z)^u factor", "bethe.py", "        if u:\n",
     "        if False:\n", ["tests/test_bethe.py"]),
    ("COLLISION_TOL 1e-30", "bethe.py", "COLLISION_TOL = 1e-8", "COLLISION_TOL = 1e-30",
     [SOLVER_TABLE]),
    ("continuation step divided by 3", "bethe.py", "ds /= 2", "ds /= 3", [SOLVER_TABLE]),
]


def _pytest(tmp, tests):
    """Run ``tests`` with pytest -x in the copy at ``tmp``; the return code."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tmp, env=env, capture_output=True).returncode


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        selection = sorted({test for *_, tests in MUTANTS for test in tests})
        if _pytest(tmp, selection) != 0:
            print("the unmutated tests fail: %s" % " ".join(selection))
            return 1
        for name, file, old, new, tests in MUTANTS:
            path = os.path.join(tmp, "src", "hecke_bose", file)
            with open(path) as fh:
                text = fh.read()
            found = text.count(old)
            if found != 1:
                print("STALE     %s: the old text occurs %d times in %s" % (name, found, file))
                bad = 1
                continue
            t0 = time.perf_counter()
            with open(path, "w") as fh:
                fh.write(text.replace(old, new))
            rc = _pytest(tmp, tests)
            with open(path, "w") as fh:
                fh.write(text)
            # pytest exits 1 when a test failed; 0 means the mutant survived, and
            # any other code (no tests collected, a usage error) kills nothing
            verdict = {0: "SURVIVED", 1: "killed"}.get(rc, "ERROR %d" % rc)
            print("%-9s %s (%.1f s)" % (verdict, name, time.perf_counter() - t0))
            bad |= rc != 1
    print("%d mutants, %s" % (len(MUTANTS), "some not killed" if bad else "all killed"))
    return bad


if __name__ == "__main__":
    sys.exit(main())
