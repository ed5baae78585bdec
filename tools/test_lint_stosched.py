#!/usr/bin/env python3
"""Self-test for tools/lint_stosched.py (runnable via ctest or directly).

Two halves:

  * every rule is proven *live* by copying its deliberately-bad fixture from
    tests/lint_fixtures/ into a minimal skeleton repo and asserting the rule
    fires there (plus a negative control where the rule's exemption or a
    conforming file must stay silent);
  * the real tree is asserted clean under all rules, so the ctest leg fails
    the moment drift is reintroduced.

Stdlib only. Run: python3 tools/test_lint_stosched.py
"""

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
FIXTURES = ROOT / "tests" / "lint_fixtures"

sys.path.insert(0, str(TOOLS))
import lint_stosched as lint  # noqa: E402


class Skeleton:
    """A throwaway minimal repo layout to drop one fixture into."""

    def __init__(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="lint_skel_")
        self.root = Path(self._tmp.name)
        (self.root / "src" / "core").mkdir(parents=True)
        (self.root / "src" / "util").mkdir(parents=True)
        (self.root / "bench").mkdir()
        (self.root / "tests").mkdir()
        (self.root / "CMakeLists.txt").write_text(
            "add_library(stosched STATIC\n  src/core/listed.cpp\n)\n",
            encoding="utf-8")
        (self.root / "src" / "core" / "listed.cpp").write_text(
            "int listed() { return 0; }\n", encoding="utf-8")
        (self.root / "src" / "core" / "stosched.hpp").write_text(
            '#pragma once\n#include "util/ok.hpp"\n', encoding="utf-8")
        (self.root / "src" / "util" / "ok.hpp").write_text(
            "#pragma once\n", encoding="utf-8")

    def add(self, fixture, dest):
        target = self.root / dest
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(FIXTURES / fixture, target)
        return target

    def cleanup(self):
        self._tmp.cleanup()


class RuleFiresOnFixture(unittest.TestCase):
    """Each rule must flag its bad fixture and stay silent on controls."""

    def setUp(self):
        self.skel = Skeleton()
        self.addCleanup(self.skel.cleanup)

    def run_rule(self, name):
        return lint.RULES[name](self.skel.root)

    def test_raw_random_fires(self):
        self.skel.add("raw_random.cpp", "src/dist/raw_random.cpp")
        found = self.run_rule("raw-random")
        self.assertTrue(found, "raw-random must fire on the fixture")
        self.assertTrue(all(v.rule == "raw-random" for v in found))
        # <random>, random_device, mt19937 and the distribution adaptor are
        # four distinct findings.
        self.assertGreaterEqual(len(found), 4)

    def test_raw_random_exempts_util(self):
        self.skel.add("raw_random.cpp", "src/util/raw_random.cpp")
        self.assertEqual(self.run_rule("raw-random"), [],
                         "src/util/ owns the RNG and is exempt")

    def test_umbrella_header_fires(self):
        self.skel.add("orphan_header.hpp", "src/queueing/orphan_header.hpp")
        found = self.run_rule("umbrella-header")
        self.assertEqual(len(found), 1)
        self.assertIn("orphan_header.hpp", found[0].path)

    def test_umbrella_header_accepts_reachable(self):
        self.assertEqual(self.run_rule("umbrella-header"), [],
                         "skeleton's util/ok.hpp is reachable")

    def test_bench_finish_fires(self):
        self.skel.add("bench_bad_exit.cpp", "bench/bench_bad_exit.cpp")
        found = self.run_rule("bench-finish")
        msgs = " ".join(v.message for v in found)
        self.assertGreaterEqual(len(found), 2,
                                "missing finish AND hand-rolled exit")
        self.assertIn("never calls", msgs)
        self.assertIn("all_checks_passed", msgs)

    def test_bench_finish_skips_micro_and_accepts_finish(self):
        self.skel.add("bench_bad_exit.cpp", "bench/bench_micro_bad.cpp")
        (self.skel.root / "bench" / "bench_good.cpp").write_text(
            "int main() { return stosched::bench::finish(table); }\n",
            encoding="utf-8")
        self.assertEqual(self.run_rule("bench-finish"), [],
                         "micro benches are exempt; finish() satisfies")

    def test_float_accumulator_fires(self):
        self.skel.add("float_accumulator.cpp", "src/core/float_acc.cpp")
        found = self.run_rule("float-accumulator")
        self.assertGreaterEqual(len(found), 3,
                                "every float token is a finding")

    def test_float_accumulator_ignores_comments(self):
        (self.skel.root / "src" / "core" / "cmt.cpp").write_text(
            "// clamp float noise at 0\nint x = 0;  /* float */\n",
            encoding="utf-8")
        self.assertEqual(self.run_rule("float-accumulator"), [],
                         "float in comments must not fire")

    def test_hot_loop_clock_fires(self):
        self.skel.add("hot_loop_clock.cpp", "src/des/hot_loop_clock.cpp")
        found = self.run_rule("hot-loop-clock")
        msgs = " ".join(v.message for v in found)
        self.assertGreaterEqual(
            len(found), 4, "<chrono>, std::chrono, clock_gettime, "
            "gettimeofday and *_clock are distinct findings")
        self.assertIn("<chrono>", msgs)
        self.assertIn("clock_gettime", msgs)

    def test_hot_loop_clock_fires_in_lp(self):
        # The simplex pivot loop is a hot path too: a clock read per pivot
        # would tax every interval-indexed-bound solve.
        self.skel.add("hot_loop_clock.cpp", "src/lp/hot_loop_clock.cpp")
        found = self.run_rule("hot-loop-clock")
        self.assertGreaterEqual(len(found), 4,
                                "src/lp is inside the scanned hot paths")

    def test_hot_loop_clock_allows_clocks_outside_hot_path(self):
        # bench/ and perfbench/ legitimately read clocks; the rule only
        # polices src/des, src/queueing and src/lp.
        self.skel.add("hot_loop_clock.cpp", "src/util/timed.cpp")
        self.skel.add("hot_loop_clock.cpp", "bench/bench_timed.cpp")
        self.assertEqual(self.run_rule("hot-loop-clock"), [],
                         "clock reads outside the hot paths are fine")

    def test_cmake_coverage_fires(self):
        self.skel.add("unlisted_source.cpp", "src/core/unlisted_source.cpp")
        (self.skel.root / "tests" / "test_unlisted.cpp").write_text(
            "int main() {}\n", encoding="utf-8")
        found = self.run_rule("cmake-coverage")
        paths = " ".join(v.path for v in found)
        self.assertEqual(len(found), 2)
        self.assertIn("unlisted_source.cpp", paths)
        self.assertIn("test_unlisted.cpp", paths)

    def test_cmake_coverage_covers_test_support_only(self):
        self.skel.add("unlisted_source.cpp", "tests/support/unlisted.cpp")
        self.skel.add("unlisted_source.cpp", "tests/lint_fixtures/skip.cpp")
        found = self.run_rule("cmake-coverage")
        self.assertEqual([v.path for v in found],
                         ["tests/support/unlisted.cpp"])

    def test_cmake_coverage_accepts_listed(self):
        self.assertEqual(self.run_rule("cmake-coverage"), [],
                         "the listed skeleton source is covered")

    def test_metrics_registry_fires(self):
        self.skel.add("atomic_telemetry.cpp", "src/des/atomic_telemetry.cpp")
        found = self.run_rule("metrics-registry")
        msgs = " ".join(v.message for v in found)
        self.assertGreaterEqual(len(found), 2,
                                "<atomic> include AND the std::atomic "
                                "declarations are distinct findings")
        self.assertTrue(all(v.rule == "metrics-registry" for v in found))
        self.assertIn("obs registry", msgs)

    def test_metrics_registry_exempts_obs_and_util(self):
        # The registry's own implementation and the low-level substrate are
        # where the atomics are SUPPOSED to live.
        self.skel.add("atomic_telemetry.cpp", "src/obs/metrics_impl.cpp")
        self.skel.add("atomic_telemetry.cpp", "src/util/substrate.cpp")
        self.assertEqual(self.run_rule("metrics-registry"), [],
                         "src/obs/ and src/util/ own the atomics")


class StripCodeLexer(unittest.TestCase):
    """strip_code must survive the literal forms that once blanked to EOF
    (every text rule in this file and in ast_audit.py reads its output)."""

    def test_digit_separators_open_no_char_literal(self):
        src = ("constexpr long kReps = 1'000'000'0;\n"
               "std::mt19937 gen;\n")
        self.assertEqual(lint.strip_code(src), src,
                         "an odd count of digit separators must not "
                         "swallow the rest of the file")

    def test_char_literals_still_blank(self):
        src = "char c = 'x'; char q = '\\''; int after = 1;\n"
        stripped = lint.strip_code(src)
        self.assertNotIn("x", stripped)
        self.assertIn("int after = 1;", stripped)

    def test_prefixed_raw_strings_blank_to_their_delimiter(self):
        src = ('const char* q = u8R"sql(SELECT "seed")sql";\n'
               'const wchar_t* w = LR"(raw \\" text)";\n'
               "std::mt19937 gen;\n")
        stripped = lint.strip_code(src)
        self.assertNotIn("SELECT", stripped)
        self.assertNotIn("raw", stripped)
        self.assertIn("std::mt19937 gen;", stripped)

    def test_identifier_glued_quote_is_an_ordinary_string(self):
        # FOO_R"(...)"  is the identifier FOO_R followed by a plain string:
        # the body must be blanked as a *non-raw* literal (the old lexer
        # raw-matched it, so an embedded )" changed where it stopped).
        src = 'FOO_R"(a)\\" tail)" int after = 2;\n'
        stripped = lint.strip_code(src)
        self.assertIn("FOO_R", stripped)
        self.assertNotIn("tail", stripped)
        self.assertIn("int after = 2;", stripped)

    def test_lexer_fixture_hides_nothing_from_raw_random(self):
        skel = Skeleton()
        try:
            skel.add("raw_string_strip.cpp", "src/core/tricky.cpp")
            found = lint.run_rules(skel.root, ["raw-random"])
            self.assertEqual(len(found), 2,
                             "<random> and the mt19937 sentinel behind the "
                             "lexer traps must both fire")
            # The engine sentinel sits BELOW every trap: seeing it proves
            # the lexer walked the separators and raw strings intact.
            self.assertTrue(any("random engine" in v.message and v.line > 24
                                for v in found))
        finally:
            skel.cleanup()


class RealTreeIsClean(unittest.TestCase):
    """The actual repository passes every rule (fixtures are excluded)."""

    def test_tree_clean(self):
        violations = lint.run_rules(ROOT)
        self.assertEqual(
            [str(v) for v in violations], [],
            "lint_stosched must be clean on the tree — fix the findings or "
            "the invariant they guard")

    def test_fixture_per_rule_exists(self):
        """Every rule keeps a fixture proving it can fire."""
        expected = {
            "raw-random": "raw_random.cpp",
            "umbrella-header": "orphan_header.hpp",
            "bench-finish": "bench_bad_exit.cpp",
            "float-accumulator": "float_accumulator.cpp",
            "hot-loop-clock": "hot_loop_clock.cpp",
            "cmake-coverage": "unlisted_source.cpp",
            "metrics-registry": "atomic_telemetry.cpp",
        }
        self.assertEqual(set(expected), set(lint.RULES),
                         "rules and fixture map must stay in sync")
        for fixture in expected.values():
            self.assertTrue((FIXTURES / fixture).is_file(),
                            f"missing fixture {fixture}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
