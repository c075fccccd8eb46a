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
SEQUENCE = "tests/test_hecke.py::test_a_sequence_of_walks_on_one_engine_matches_the_oracle"
WORDS_ORACLE = "tests/test_hecke.py::test_engine_words_match_n_term_oracle"
LINE_SUMS = "tests/test_hecke.py::test_Q_line_sums_match_n_term_sum"
PACKED = "tests/test_hecke.py::test_engine_packs_points_beyond_24_bit_fields_without_aliasing"
PACKED_H0 = "tests/test_hecke.py::test_engine_at_h_zero_reflects_points_by_L_of_10_to_the_8"
REPACK = "tests/test_hecke.py::test_engine_repacks_its_tables_when_a_walk_needs_wider_fields"
CLOSED_FORM = P + "test_closed_form_propagation_matches_engine"
CLOSED_FORM_FAR = P + "test_closed_form_theorem_at_far_points_for_k_4_and_5"
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
    ("duality weights in the order (D, C, A)", "verify.py", "{x: 1}, engine.couplings)",
     "{x: 1}, operator.itemgetter(0, 2, 1)(engine.couplings))", [DUALITY_CORRUPTED]),
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
    ("a read matches its word against the chain's letters outermost first", "hecke.py",
     "== chain[shared].letter", "== chain[-1 - shared].letter",
     [WINDOW_WORK, SEQUENCE, P + "test_engine_work_at_far_points_is_pinned"]),
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
    ("swap map moves the two slots the wrong way", "hecke.py",
     "y = x + (zb - za) * d", "y = x + (za - zb) * d", [WORDS_ORACLE]),
    ("a field one bit narrower than the width rule asks for", "hecke.py",
     ").bit_length() + 1", ").bit_length()", [PACKED]),
    ("width rule without L", "hecke.py", "height * (self.params.L + 1)", "height * 2",
     [PACKED_H0]),
    ("line key holds its sum in slot b (x_1's slot, not x_k's, at letter 0)", "hecke.py",
     "key = x + zb * d", "key = x - (za - self.period) * d", [WORDS_ORACLE]),
    ("alpha read offset by R_a instead of R_b", "hecke.py",
     "shifts = [shift * rb for _, shift in self.terms]",
     "shifts = [shift * (1 << at) for _, shift in self.terms]", [WORDS_ORACLE]),
    ("_repack skips f's table", "hecke.py",
     "        self._base = {move(x): v for x, v in self._base.items()}\n", "", [REPACK]),
    ("_repack skips the chain", "hecke.py",
     "        for layer in self._chain:\n            layer.repack(move, width)\n", "", [REPACK]),
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
    ("closed form reads g_p for g_{sigma p}", "propagation.py", "wave(sigma)(y)",
     "wave(tuple(range(k)))(y)", [CLOSED_FORM, CLOSED_FORM_FAR]),
    ("closed form builds a wave at every read", "propagation.py",
     "wave = functools.cache(lambda sigma:", "wave = (lambda sigma:", [CLOSED_FORM_FAR]),
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
    ("apply_Qw reads a point of another length", "hecke.py", "if len(x) != params.k:",
     "if False:", ["tests/test_hecke.py::test_apply_Qw_rejects_a_point_of_another_length"]),
    ("apply_Qw reads a point with a float coordinate", "hecke.py",
     "if not all(isinstance(c, int) for c in x):", "if False:",
     ["tests/test_hecke.py::test_apply_Qw_rejects_a_point_with_a_coordinate_that_is_not_an_int"]),
    ("the descent reads a point of another length", "weyl.py", "if len(x) != k:", "if False:",
     [P + "test_propagate_rejects_a_point_of_another_length"]),
    ("the counts d^+- read a point of another length", "hamiltonian.py", "if len(x) != k:",
     "if False:", ["tests/test_hamiltonian.py::test_apply_H_rejects_a_point_of_another_length"]),
    ("h_p reads a point of another length", "bethe.py", "if len(x) != params.k:", "if False:",
     ["tests/test_bethe.py::test_wave_function_rejects_a_point_of_another_length"]),
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
    ("T^check takes an exponent of another length", "laurent.py", "if len(exp) != params.k:",
     "if False:", ["tests/test_laurent.py::test_T_check_rejects_an_exponent_of_another_length"]),
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
    ("solve_bethe looks the kernel up per Newton run", "bethe.py",
     "q = kernel.newton(p, L, a, b)", "q = _kernel(len(p)).newton(p, L, a, b)",
     ["tests/test_bethe.py::test_solve_looks_the_kernel_up_once"]),
    ("--window takes a superscript digit", "cli.py", "    if not text.isdecimal():\n",
     "    if not text.isdigit():\n",
     ["tests/test_cli.py::test_superscript_window_names_its_cause"]),
    ("--p-file reads a bool as a number", "cli.py", "if type(part) not in (int, float):",
     "if type(part) not in (int, float, bool):",
     ["tests/test_cli.py::test_wavefunction_bad_spectral_parameters_exit_2"]),
    ("--p-file lets an OverflowError out", "cli.py",
     "except (KeyError, OverflowError, TypeError, ValueError) as err:",
     "except (KeyError, TypeError, ValueError) as err:",
     ["tests/test_cli.py::test_p_file_root_too_large_for_a_float_names_the_file"]),
    ("Params takes a bool k or L", "weyl.py",
     "if not isinstance(value, int) or isinstance(value, bool):", "if not isinstance(value, int):",
     ["tests/test_weyl.py::test_params_rejects_a_k_or_L_that_is_not_an_int"]),
    ("solve_bethe takes a float step count", "bethe.py",
     "if not isinstance(homotopy_steps, int) or isinstance(homotopy_steps, bool):",
     "if isinstance(homotopy_steps, bool):",
     ["tests/test_bethe.py::test_solver_takes_only_a_positive_int_of_steps"]),
    ("R_lambda takes a negative exponent at a zero variable", "bethe.py",
     "if min(exps, default=0) < 0 and 0 in z:", "if False:",
     ["tests/test_bethe.py::test_hall_littlewood_negative_exponent_at_a_zero_variable_rejected"]),
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
