"""A catalogue of hand-made mutants that the tests must kill.

Each entry is (file under src/hecke_bose, exact old text, new text, tests).
``python tests/mutants.py`` copies src/, tests/ and pyproject.toml into a
temporary directory, checks that every entry's tests pass there unmutated,
and then, one entry at a time, replaces the old text with the new and runs
the entry's tests with ``pytest -x``.  An entry survives when its tests still
pass, and it is stale when its old text does not occur exactly once in its
file.  Either makes the run exit 1, so the catalogue follows refactors
instead of rotting.

The runner imports pytest and hypothesis once and forks one child per run,
one child at a time; the child imports the package and the tests from the
copy, runs ``pytest.main`` there and exits with its code.  The runner
itself never imports ``hecke_bose``, so each child reads the mutated file.

pytest does not collect this file: its name does not match test_*.py.
"""

import importlib
import os
import shutil
import sys
import tempfile
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

V = "tests/test_verify.py::"
P = "tests/test_propagation.py::"
HECKE_CORRUPTED = V + "test_hecke_suite_names_a_corrupted_relation"
DUALITY_CORRUPTED = V + "test_duality_suite_names_where_the_pairing_reads_a_corrupted_f"
THEOREM_CORRUPTED = V + "test_theorem_suite_names_where_H_reads_a_corrupted_G"
LEMMA_CORRUPTED = V + "test_batched_suites_name_a_corrupted_value"
HECKE_HELD = V + "test_hecke_suite_holds_at_most_one_relation_beyond_the_letters"
DUALITY_HELD = V + "test_duality_suite_holds_one_letter_layer_at_a_time"
WINDOW_WORK = V + "test_window_suite_engine_work_is_pinned"
WINDOW_PEAK = V + "test_window_suites_hold_one_chain_of_layers_at_a_time"
WALK = "tests/test_hecke.py::test_walk_hands_out_the_oracle_at_one_scale_and_holds_the_last_chain"
WORDS_ORACLE = "tests/test_hecke.py::test_engine_words_match_n_term_oracle"
LINE_SUMS = "tests/test_hecke.py::test_Q_line_sums_match_n_term_sum"
CLOSED_FORM = P + "test_closed_form_propagation_matches_engine"
SOLVER_TABLE = "tests/test_bethe.py::test_solver_outcomes_pinned_per_instance"
NEWTON_EXITS = "tests/test_bethe.py::test_compiled_newton_exits_match_the_loop_without_cycle_exit"
NEWTON_CYCLE = "tests/test_bethe.py::test_newton_stops_at_a_cycle"

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
    ("lemma-main yields True", "verify.py", "yield x, lhs == rhs,", "yield x, True,",
     [LEMMA_CORRUPTED]),
    ("lemma-main A read as D", "verify.py", "- a * dp * G[x]", "- unit * dp * G[x]",
     [LEMMA_CORRUPTED]),
    ("lemma-main reads v_i for v_sigma(i)", "verify.py", "s = sigma[i]\n", "s = i\n",
     [LEMMA_CORRUPTED]),
    ("lemma-main's (1 - beta) sum one term short", "verify.py", "for j in range(1, dp + 1))",
     "for j in range(dp))", [LEMMA_CORRUPTED]),
    ("lemma-main reads a neighbour's descent", "verify.py", "= descents[x]\n",
     "= descents[x[:-1] + (x[-1] - 1,)]\n", [LEMMA_CORRUPTED]),
    ("random_rational_function unmemoized", "verify.py",
     "functools.cache(functools.partial(_value_at, zlib.crc32((\"%s|\" % seed).encode())))",
     "functools.partial(_value_at, zlib.crc32((\"%s|\" % seed).encode()))",
     ["tests/test_hamiltonian.py::test_memoized_and_unmemoized_agree"]),
    ("walk hands out S for T", "hecke.py", "return self._scale * unit**height, columns",
     "return self._scale, columns",
     ["tests/test_hecke.py::test_Q_single_step_example",
      "tests/test_hecke.py::test_engine_rescales_when_new_denominators_arrive"]),
    ("a read keeps the previous word's layers", "hecke.py", "del chain[shared:]", "pass",
     [HECKE_HELD, DUALITY_HELD, WINDOW_PEAK]),
    ("a read cuts one shared layer too many", "hecke.py", "del chain[shared:]",
     "del chain[max(shared - 1, 0):]",
     [WINDOW_WORK, P + "test_engine_work_at_far_points_is_pinned"]),
    ("walk leaves a read's ints at the scale S of its read", "hecke.py",
     "m = self._scale // scale * unit", "m = unit", [WALK, LEMMA_CORRUPTED]),
    ("walk does not scale shorter words", "hecke.py",
     "m = self._scale // scale * unit ** (height - len(word))", "m = self._scale // scale",
     [WALK, LEMMA_CORRUPTED]),
    ("_rescale skips f's table", "hecke.py",
     "        for x, v in base.items():\n            base[x] = v * m\n", "",
     ["tests/test_hecke.py::test_engine_rescales_every_layer_of_the_table"]),
    ("_rescale skips the chain", "hecke.py",
     "        for layer in self._chain:\n            layer.rescale(m)\n", "",
     ["tests/test_hecke.py::test_engine_rescales_every_layer_of_the_table"]),
    ("one-step extension adds the step before its own", "hecke.py",
     "sums.append(sums[-1] + steps[n0])", "sums.append(sums[-1] + steps[n0 - 1])",
     [LINE_SUMS, WORDS_ORACLE]),
    ("swap map reverses the slots after the root", "hecke.py",
     "a + 1, a, *range(a + 2, k))", "a + 1, a, *reversed(range(a + 2, k)))", [WORDS_ORACLE]),
    ("h = 0 (alpha = 0, beta = 1) still builds line sums", "hecke.py",
     "if za == zb or not shifts:", "if za == zb:", [LINE_SUMS, WORDS_ORACLE]),
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
    ("propagate takes a wave of the wrong length", "propagation.py",
     "if isinstance(f, PlaneWave) and len(f.p) != params.k:", "if False:",
     [P + "test_propagate_rejects_a_plane_wave_of_the_wrong_length"]),
    ("propagate builds an engine per read", "propagation.py",
     "propagate_many(engine, {x: weyl.shortest_element(x, params)})",
     "propagate_many(QWordEngine(f, params), {x: weyl.shortest_element(x, params)})",
     [P + "test_propagate_one_point_reads_share_the_chain_of_the_last_word"]),
    ("plane wave reads a point of another length", "propagation.py",
     "if len(x) != len(self.p):", "if False:",
     [P + "test_plane_wave_rejects_a_point_of_another_length"]),
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
    ("Newton loop without its cycle exit", "bethe.py", '"if len(seen) < n:"', '"if False:"',
     [NEWTON_CYCLE, NEWTON_EXITS]),
    ("Newton loop capped one iteration late", "bethe.py", "(NEWTON_MAX_ITER + 1)",
     "(NEWTON_MAX_ITER + 2)", [NEWTON_EXITS]),
    ("Newton loop capped one iteration early", "bethe.py", "(NEWTON_MAX_ITER + 1)",
     "(NEWTON_MAX_ITER)", [NEWTON_EXITS]),
    ("Newton loop without its finiteness check", "bethe.py", '["finite = %s" % finite]',
     '["finite = True"]', [NEWTON_EXITS]),
    ("Newton loop pole tolerance 1e-13", "bethe.py", '"if abs(%s) < %r:" % (den, POLE_TOL)',
     '"if 10 * abs(%s) < %r:" % (den, POLE_TOL)', [NEWTON_EXITS]),
    ("residuals rounds a denominator through complex", "bethe.py",
     '"if abs(%s) < %r:" % (den, POLE_TOL)', '"if abs(complex(%s)) < %r:" % (den, POLE_TOL)',
     ["tests/test_bethe.py::test_residual_exact_beyond_float_range"]),
    ("bethe_residual keeps int p", "bethe.py", "p = tuple(map(Fraction, p))", "pass",
     ["tests/test_bethe.py::test_residual_exact_on_int_p"]),
    ("POLE_TOL 1e-11", "bethe.py", "POLE_TOL = 1e-12", "POLE_TOL = 1e-11", [NEWTON_EXITS]),
    ("separation names the pair backwards", "bethe.py", "% (i + 1, j + 1))]",
     "% (j + 1, i + 1))]",
     ["tests/test_bethe.py::test_solver_checks_the_separation_of_the_roots_it_returns"]),
]


def _pytest(tmp, tests, bytecode=False):
    """Run ``tests`` with pytest -x in the copy at ``tmp``, in a forked child
    whose output goes to /dev/null; the child's exit code.  The child writes
    bytecode only when ``bytecode`` is true, and reads what is there."""
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 3  # pytest's "internal error", should pytest itself raise
        try:
            os.chdir(tmp)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(null, 2)
            sys.path[:] = [os.path.join(tmp, "src")] + [p for p in sys.path if p != HERE]
            sys.dont_write_bytecode = not bytecode
            code = pytest.main(["-x", "-q", "-p", "no:cacheprovider", *tests])
        finally:
            os._exit(int(code))
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def main():
    importlib.import_module("hypothesis")  # once, here, not in every child
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part), ignore=ignore)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        selection = sorted({test for *_, tests in MUTANTS for test in tests})
        # the unmutated run leaves the tests' rewritten bytecode for the
        # children to read; the package's goes, since its files will change
        if _pytest(tmp, selection, bytecode=True) != 0:
            print("the unmutated tests fail: %s" % " ".join(selection))
            return 1
        shutil.rmtree(os.path.join(tmp, "src", "hecke_bose", "__pycache__"))
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
