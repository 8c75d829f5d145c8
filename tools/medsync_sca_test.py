#!/usr/bin/env python3
"""Self-tests for tools/medsync_sca.py.

Every rule must (a) fire on the fixture that violates it and (b) stay
silent on the corrected form, so a regression in either direction — a rule
that stops catching the bug, or a rule that starts flagging the sanctioned
idiom — fails this suite. Per-line fixtures (MS001–MS009) live in
tools/lint_fixtures/ and are checked under masquerade repo-relative paths;
whole-program fixtures (MS101–MS104) live in tools/sca_fixtures/. The real
tree must analyze clean. Registered with ctest under the `lint` label, in
the parts that PARTS names; `medsync_sca_test.py [lint|lint-tree|sca]`
runs one part.
"""

import json
import pathlib
import sys
import tempfile
import unittest

TOOLS = pathlib.Path(__file__).resolve().parent
REPO_ROOT = TOOLS.parent
FIXTURES = TOOLS / "sca_fixtures"
LINT_FIXTURES = TOOLS / "lint_fixtures"
sys.path.insert(0, str(TOOLS))

import medsync_sca as sca  # noqa: E402


def analyze(*names, allowlist=()):
    """Runs the whole-program rules over the named fixtures as one program
    (cross-file resolution included), applying only the given allowlist
    entries."""
    program = sca.Frontend(
        [sca.read_source(FIXTURES / name, name) for name in names]).build()
    findings = sca.run_rules(program)
    findings, suppressed = sca.apply_suppressions(
        findings, program, list(allowlist))
    return findings, suppressed


def lint_fixture(name, rel, durability_allowlist=()):
    """Runs the per-line rules over a fixture under a masquerade
    repo-relative path."""
    return sca.check_lines(sca.read_source(LINT_FIXTURES / name, rel),
                           set(durability_allowlist))


def fixture_tests(directory):
    """The *_test.cc fixtures in `directory`, as tests/<name> sources."""
    return [sca.read_source(path, f"tests/{path.name}")
            for path in sorted(directory.glob("*_test.cc"))]


def rules_of(findings):
    return [f.rule for f in findings]


class RawThreadRuleTest(unittest.TestCase):
    def test_fires_on_raw_thread_and_async(self):
        findings = lint_fixture("raw_thread.cc", "src/chain/raw_thread.cc")
        self.assertEqual(rules_of(findings), ["MS001", "MS001"])
        self.assertIn("std::thread", findings[0].message)
        self.assertEqual(findings[0].file, "src/chain/raw_thread.cc")

    def test_allowed_inside_threading_dir(self):
        findings = lint_fixture("raw_thread.cc",
                                "src/common/threading/raw_thread.cc")
        self.assertEqual(findings, [])


class WallClockRuleTest(unittest.TestCase):
    def test_fires_on_system_clock_time_and_rand(self):
        findings = lint_fixture("wall_clock.cc", "src/net/wall_clock.cc")
        # Four sites: the three calls and the `#define NOW()` macro body,
        # which only a lexer that keeps preprocessor lines can see.
        self.assertEqual(rules_of(findings), ["MS002"] * 4)
        self.assertEqual(findings[0].line, 8)
        messages = " ".join(finding.message for finding in findings)
        self.assertIn("system_clock", messages)
        self.assertIn("rand", messages)
        self.assertIn("time", messages)

    def test_allowed_inside_clock_and_random(self):
        for rel in ("src/common/clock.cc", "src/common/random.cc"):
            self.assertEqual(lint_fixture("wall_clock.cc", rel), [])


class DurabilityRuleTest(unittest.TestCase):
    def test_fires_on_fwrite_and_rename(self):
        findings = lint_fixture("fsyncless_rename.cc",
                                "src/runtime/fsyncless_rename.cc")
        self.assertEqual(rules_of(findings), ["MS003", "MS003"])
        self.assertIn("fwrite", findings[0].message)
        self.assertIn("rename", findings[1].message)

    def test_allowlisted_file_is_quiet(self):
        findings = lint_fixture("fsyncless_rename.cc",
                                "src/relational/wal.cc",
                                {"src/relational/wal.cc"})
        self.assertEqual(findings, [])


class StatusDiscardRuleTest(unittest.TestCase):
    def test_fires_on_void_casts_of_calls_only(self):
        findings = lint_fixture("void_discard.cc", "src/core/void_discard.cc")
        # Four call-expression discards, `(void)::Fn()` included; the
        # variable guard is legal.
        self.assertEqual(rules_of(findings), ["MS005"] * 4)

    def test_fires_outside_src_too(self):
        findings = lint_fixture("void_discard.cc",
                                "tests/void_discard_test.cc")
        self.assertEqual(rules_of(findings), ["MS005"] * 4)


class TestLabelRuleTest(unittest.TestCase):
    def test_unlabeled_pool_and_fault_tests_flagged(self):
        tests_dir = LINT_FIXTURES / "labels" / "tests"
        findings = sca.check_test_labels(
            fixture_tests(tests_dir),
            (tests_dir / "CMakeLists.txt").read_text())
        self.assertEqual(rules_of(findings), ["MS004", "MS004"])
        flagged = {finding.message.split("'")[1] for finding in findings}
        self.assertEqual(flagged, {"pool_spawner_test", "fault_toucher_test"})

    def test_label_parser_reads_both_cmake_syntaxes(self):
        tests_dir = LINT_FIXTURES / "labels" / "tests"
        labels = sca.parse_test_labels(
            (tests_dir / "CMakeLists.txt").read_text())
        self.assertEqual(labels["labeled_ok_test"], {"tsan", "fault"})


class PeerFleetRuleTest(unittest.TestCase):
    def test_looped_and_unrolled_fleets_flagged_small_cast_quiet(self):
        findings = sca.check_peer_fleets(
            fixture_tests(LINT_FIXTURES / "fleets"))
        self.assertEqual(rules_of(findings), ["MS006", "MS006"])
        flagged = {finding.file for finding in findings}
        self.assertEqual(flagged, {"tests/looped_fleet_test.cc",
                                   "tests/unrolled_fleet_test.cc"})
        messages = " ".join(finding.message for finding in findings)
        self.assertIn("in a loop", messages)
        self.assertIn("4 direct Peer constructions", messages)
        self.assertIn("GeneratedScenario", messages)


class DirectChainRuleTest(unittest.TestCase):
    def test_fires_on_stack_unique_and_new_outside_owners(self):
        findings = lint_fixture("direct_chain.cc", "src/core/direct_chain.cc")
        self.assertEqual(rules_of(findings), ["MS007", "MS007", "MS007"])
        self.assertIn("lane assignment", findings[0].message)

    def test_allowed_inside_chain_runtime_and_their_tests(self):
        for rel in ("src/chain/direct_chain.cc",
                    "src/runtime/direct_chain.cc",
                    "tests/chain_blockchain_test.cc",
                    "bench/bench_chain_core.cc"):
            self.assertEqual(lint_fixture("direct_chain.cc", rel), [])

    def test_fires_in_non_chain_tests_and_benches(self):
        for rel in ("tests/core_direct_chain_test.cc",
                    "bench/bench_scalability.cc",
                    "examples/direct_chain.cc"):
            self.assertEqual(rules_of(lint_fixture("direct_chain.cc", rel)),
                             ["MS007", "MS007", "MS007"], rel)


class DirectRowsRuleTest(unittest.TestCase):
    def test_fires_on_layout_access_outside_relational(self):
        findings = lint_fixture("direct_rows.cc", "src/core/direct_rows.cc")
        self.assertEqual(rules_of(findings), ["MS008"] * 5)
        self.assertIn("scan()", findings[0].message)

    def test_head_decoy_and_comment_stay_quiet(self):
        findings = lint_fixture("direct_rows.cc", "src/core/direct_rows.cc")
        # Exactly the five layout accesses — the blockchain head() decoy and
        # the comment mentioning table.chunks() contribute nothing.
        self.assertEqual(len(findings), 5)

    def test_allowed_inside_relational_layer_tests_and_bench(self):
        for rel in ("src/relational/direct_rows.cc",
                    "tests/relational_storage_scale_test.cc",
                    "bench/bench_storage.cc"):
            self.assertEqual(lint_fixture("direct_rows.cc", rel), [], rel)


class RawSocketRuleTest(unittest.TestCase):
    def test_fires_on_socket_syscalls_and_raw_fd_io(self):
        findings = lint_fixture("raw_socket.cc", "src/core/raw_socket.cc")
        self.assertEqual(rules_of(findings), ["MS009"] * 4)
        flagged = [finding.message.split("'")[1] for finding in findings]
        self.assertEqual(flagged, ["socket", "connect", "read", "::write"])
        self.assertIn("SocketTransport", findings[0].message)

    def test_allowed_inside_net_layer(self):
        findings = lint_fixture("raw_socket.cc", "src/net/raw_socket.cc")
        self.assertEqual(findings, [])

    def test_tests_may_open_raw_sockets(self):
        # The equivalence/corruption tests attack the transport from outside
        # with a raw client socket; the rule is scoped to src/.
        findings = lint_fixture("raw_socket.cc",
                                "tests/net_socket_equivalence_test.cc")
        self.assertEqual(findings, [])

    def test_durability_files_keep_file_io_but_not_sockets(self):
        findings = lint_fixture("raw_socket.cc", "src/relational/wal.cc",
                                {"src/relational/wal.cc"})
        # read()/write() are the audited WAL I/O; socket()/connect() still
        # have no business in a durability file.
        self.assertEqual([finding.message.split("'")[1]
                          for finding in findings],
                         ["socket", "connect"])


class CleanFixtureTest(unittest.TestCase):
    def test_decoys_do_not_fire(self):
        self.assertEqual(lint_fixture("clean.cc", "src/core/clean.cc"), [])


class CommentAndLiteralStrippingTest(unittest.TestCase):
    """No per-line rule may fire on code that only exists inside comments
    or string literals — including the two historical blind spots: raw
    strings and backslash-continued line comments. The blank_code cases
    pin the one lexer both rule families share."""

    def test_commented_out_code_is_invisible(self):
        findings = lint_fixture("commented_decoys.cc",
                                "src/core/commented_decoys.cc")
        self.assertEqual(findings, [],
                         "\n".join(f.render() for f in findings))

    def test_blank_code_blanks_raw_strings(self):
        stripped = sca.blank_code(
            'auto x = R"(rand() (void) Foo();)";\n')
        self.assertNotIn("rand", stripped)
        self.assertNotIn("(void)", stripped)
        # Newlines and surrounding code survive.
        self.assertIn("auto x =", stripped)

    def test_blank_code_blanks_delimited_raw_strings(self):
        stripped = sca.blank_code(
            'auto x = R"seq(time(nullptr) )" still inside)seq";\nint y;')
        self.assertNotIn("time", stripped)
        self.assertNotIn("still inside", stripped)
        self.assertIn("int y;", stripped)

    def test_blank_code_follows_line_comment_continuations(self):
        stripped = sca.blank_code(
            "int a;  // comment continues \\\n srand(7);\nint b;\n")
        self.assertNotIn("srand", stripped)
        self.assertIn("int a;", stripped)
        self.assertIn("int b;", stripped)

    def test_line_count_is_preserved(self):
        text = ('// a \\\n b\nR"x(\nmulti\nline\n)x" int tail;\n')
        self.assertEqual(sca.blank_code(text).count("\n"),
                         text.count("\n"))


class Ms101LockOrderTest(unittest.TestCase):
    def test_fires_on_cross_tu_cycle(self):
        findings, _ = analyze("ms101_cycle_a.cc", "ms101_cycle_b.cc")
        self.assertIn("MS101", rules_of(findings))
        cycle = next(f for f in findings if f.rule == "MS101")
        self.assertIn("LockA::mu_", cycle.message)
        self.assertIn("LockB::mu_", cycle.message)
        # The witness must span both translation units.
        witness = "\n".join(cycle.witness)
        self.assertIn("ms101_cycle_a.cc", witness)
        self.assertIn("ms101_cycle_b.cc", witness)

    def test_fires_on_self_deadlock(self):
        findings, _ = analyze("ms101_self_deadlock.cc")
        self.assertEqual(rules_of(findings), ["MS101"])
        self.assertIn("re-acquired", findings[0].message)
        self.assertIn("SelfLocker::mu_", findings[0].message)

    def test_silent_on_consistent_order(self):
        findings, _ = analyze("ms101_clean.cc")
        self.assertEqual(findings, [],
                         [f.render() for f in findings])

    def test_silent_when_only_one_direction_exists(self):
        # Half a cycle is a legal order, not a deadlock.
        findings, _ = analyze("ms101_cycle_a.cc")
        self.assertNotIn("MS101", [f.rule for f in findings
                                   if "cycle" in f.message])


class Ms102DeterminismFlowTest(unittest.TestCase):
    def test_fires_direct_and_transitive(self):
        findings, _ = analyze("ms102_unordered_sink.cc")
        ms102 = [f for f in findings if f.rule == "MS102"]
        self.assertEqual(len(ms102), 2, [f.render() for f in findings])
        witness = "\n".join(ms102[0].witness + ms102[1].witness)
        self.assertIn("Append", witness)   # direct sink
        self.assertIn("FoldOne", witness)  # transitive through the helper

    def test_fires_on_unsorted_collect_then_sink(self):
        # The loop body itself never reaches a sink; the vector it fills
        # in hash order does, with no sort in between.
        findings, _ = analyze("ms102_collect_unsorted.cc")
        ms102 = [f for f in findings if f.rule == "MS102"]
        self.assertEqual(len(ms102), 1, [f.render() for f in findings])
        witness = "\n".join(ms102[0].witness)
        self.assertIn("collects 'rows'", witness)
        self.assertIn("Serialize", witness)

    def test_silent_on_corrected_forms(self):
        findings, _ = analyze("ms102_clean.cc")
        self.assertEqual(findings, [],
                         [f.render() for f in findings])


class Ms103LoopBlockingTest(unittest.TestCase):
    def test_fires_on_blocking_callbacks(self):
        findings, _ = analyze("ms103_blocking_loop.cc")
        ms103 = [f for f in findings if f.rule == "MS103"]
        self.assertEqual(len(ms103), 2, [f.render() for f in findings])
        witness = "\n".join(ms103[0].witness + ms103[1].witness)
        self.assertIn("fsync", witness)
        self.assertIn("Wait", witness)

    def test_silent_on_nonblocking_and_inline_suppressed(self):
        findings, suppressed = analyze("ms103_clean.cc")
        self.assertEqual(findings, [],
                         [f.render() for f in findings])
        self.assertEqual(suppressed, 1)  # the inline-audited checkpoint

    def test_allowlist_suppresses_with_rationale(self):
        entry = ("MS103", "BlockingServer::SyncFile",
                 "fixture: audited durability fsync")
        findings, suppressed = analyze("ms103_blocking_loop.cc",
                                       allowlist=[entry])
        self.assertEqual(suppressed, 1)
        self.assertEqual(len(findings), 1)  # the CondVar::Wait one remains

    def test_allowlist_is_rule_scoped(self):
        # An MS104 entry must not silence an MS103 finding even if the
        # substring matches.
        entry = ("MS104", "BlockingServer", "wrong rule on purpose")
        findings, suppressed = analyze("ms103_blocking_loop.cc",
                                       allowlist=[entry])
        self.assertEqual(suppressed, 0)
        self.assertEqual(len(findings), 2)


class Ms104StatusLeakTest(unittest.TestCase):
    def test_fires_on_named_and_auto_bindings(self):
        findings, _ = analyze("ms104_leak.cc")
        ms104 = [f for f in findings if f.rule == "MS104"]
        self.assertEqual(len(ms104), 2, [f.render() for f in findings])
        leaked = {f.message.split("'")[1] for f in ms104}
        self.assertEqual(leaked, {"ignored", "outcome"})

    def test_silent_on_all_consumption_idioms(self):
        findings, _ = analyze("ms104_clean.cc")
        self.assertEqual(findings, [],
                         [f.render() for f in findings])


class SarifOutputTest(unittest.TestCase):
    def test_sarif_is_valid_and_carries_findings(self):
        findings, _ = analyze("ms104_leak.cc")
        doc = json.loads(sca.sarif_dump(findings))
        self.assertEqual(doc["version"], "2.1.0")
        driver = doc["runs"][0]["tool"]["driver"]
        self.assertEqual(driver["name"], "medsync-sca")
        self.assertEqual({r["id"] for r in driver["rules"]},
                         {f"MS00{n}" for n in range(1, 10)}
                         | {"MS101", "MS102", "MS103", "MS104"})
        results = doc["runs"][0]["results"]
        self.assertEqual(len(results), 2)
        for result in results:
            self.assertEqual(result["ruleId"], "MS104")
            loc = result["locations"][0]["physicalLocation"]
            self.assertEqual(loc["artifactLocation"]["uri"],
                             "ms104_leak.cc")
            self.assertGreater(loc["region"]["startLine"], 0)

    def test_empty_findings_is_still_valid_sarif(self):
        doc = json.loads(sca.sarif_dump([]))
        self.assertEqual(doc["runs"][0]["results"], [])


class AllowlistFileTest(unittest.TestCase):
    def test_real_allowlist_parses_and_every_entry_has_rationale(self):
        entries = sca.load_allowlist(TOOLS / "sca_allowlist.txt")
        self.assertGreater(len(entries), 0)
        for rule, pattern, rationale in entries:
            self.assertRegex(rule, r"^MS\d{3}$")
            self.assertTrue(pattern)
            self.assertTrue(rationale, f"entry {pattern} lacks a rationale")

    def test_entry_without_rationale_is_rejected(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as tmp:
            tmp.write("MS103 SomePattern\n")
            path = pathlib.Path(tmp.name)
        try:
            self.assertEqual(sca.load_allowlist(path), [])
        finally:
            path.unlink()


class SourceWalkTest(unittest.TestCase):
    def test_checkout_under_a_fixtures_directory_is_still_walked(self):
        # Only repo-relative paths are filtered: a checkout that itself sits
        # under some `fixtures` directory must not analyze zero files.
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp) / "fixtures" / "repo"
            (root / "src").mkdir(parents=True)
            (root / "src" / "wall.cc").write_text("long t = time(nullptr);\n")
            (root / "tools" / "lint_fixtures").mkdir(parents=True)
            (root / "tools" / "lint_fixtures" / "skip.cc").write_text("\n")
            self.assertEqual(sca.collect_sources(root), ["src/wall.cc"])
            findings, _, files = sca.analyze(root)
            self.assertEqual(files, 1)
            self.assertEqual(rules_of(findings), ["MS002"])


class CleanTreeTest(unittest.TestCase):
    def test_real_tree_is_clean_modulo_audited_allowlist(self):
        findings, _, files = sca.analyze(REPO_ROOT)
        self.assertEqual(findings, [],
                         "\n".join(f.render() for f in findings))
        self.assertGreater(files, 100)


class LineRulesCleanTreeTest(unittest.TestCase):
    def test_real_tree_passes_the_per_line_rules(self):
        sources = [sca.read_source(REPO_ROOT / rel, rel)
                   for rel in sca.collect_sources(REPO_ROOT)]
        findings = sca.run_line_rules(REPO_ROOT, sources)
        self.assertEqual(findings, [],
                         "\n".join(f.render() for f in findings))
        self.assertGreater(len(sources), 100)


# ctest runs this suite in parts (tools/CMakeLists.txt): `lint` is the
# per-line rules MS001-MS009 and the shared lexer, `lint-tree` the real tree
# under the per-line rules alone, and `sca` every other test. A test class
# not named below belongs to `sca`. With no part named, every test runs.
PARTS = {
    "lint": (RawThreadRuleTest, WallClockRuleTest, DurabilityRuleTest,
             StatusDiscardRuleTest, TestLabelRuleTest, PeerFleetRuleTest,
             DirectChainRuleTest, DirectRowsRuleTest, RawSocketRuleTest,
             CleanFixtureTest, CommentAndLiteralStrippingTest),
    "lint-tree": (LineRulesCleanTreeTest,),
}


def part_suite(part):
    named = {cls for classes in PARTS.values() for cls in classes}
    if part == "sca":
        classes = [cls for cls in globals().values()
                   if isinstance(cls, type)
                   and issubclass(cls, unittest.TestCase)
                   and cls not in named]
    else:
        classes = PARTS[part]
    loader = unittest.defaultTestLoader
    return unittest.TestSuite(loader.loadTestsFromTestCase(cls)
                              for cls in classes)


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] in (*PARTS, "sca"):
        result = unittest.TextTestRunner(verbosity=1).run(
            part_suite(sys.argv[1]))
        sys.exit(0 if result.wasSuccessful() else 1)
    unittest.main()
