// The lint engine's contract: every rule fires on its archetypal positive
// fixture and stays silent on the matching negative (including the decoy
// shapes the trojan heuristics must not flag), findings carry accurate
// 1-based line/column positions from the lexer, detector verdicts are
// bit-identical with lint enabled or disabled, and a warm LintWorkspace
// performs zero heap allocations per run() (counted by the global operator
// new override below; this suite is its own executable, so the override is
// scoped to it).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector.h"
#include "data/corpus.h"
#include "graph/builder.h"
#include "graph/netgraph.h"
#include "lint/lint.h"
#include "verilog/parser.h"

namespace {
std::atomic<std::size_t> g_allocation_count{0};
}

// GCC's -Wmismatched-new-delete heuristic cannot see that these replaced
// operators form a consistent malloc/free pair; the diagnostic is a false
// positive here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocation_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace noodle {
namespace {

// ---------------------------------------------------------------------------
// Fixture driver: parse one module, lower its NetGraph, lint it, and hand
// back owned findings. Fresh state per call — warmth is the allocation
// test's concern, not the rule tests'.
// ---------------------------------------------------------------------------

std::vector<lint::OwnedFinding> lint_source(const std::string& source) {
  verilog::ParserWorkspace parser;
  graph::NetGraph netgraph(parser.symbols());
  graph::BuildScratch scratch;
  lint::LintWorkspace workspace;
  const verilog::fast::Module& module = parser.parse_single(source);
  graph::build_netgraph(module, netgraph, scratch);
  std::vector<lint::OwnedFinding> out;
  for (const lint::Finding& finding :
       workspace.run(module, netgraph, *parser.symbols())) {
    out.push_back(lint::to_owned(finding, *parser.symbols()));
  }
  return out;
}

const lint::OwnedFinding* find_rule(const std::vector<lint::OwnedFinding>& findings,
                                    lint::RuleId rule, std::string_view subject = "") {
  for (const lint::OwnedFinding& finding : findings) {
    if (finding.rule != rule) continue;
    if (!subject.empty() && finding.subject != subject) continue;
    return &finding;
  }
  return nullptr;
}

bool has_rule(const std::vector<lint::OwnedFinding>& findings, lint::RuleId rule,
              std::string_view subject = "") {
  return find_rule(findings, rule, subject) != nullptr;
}

// Asserts the finding exists and sits exactly where the lexer saw it.
void expect_at(const std::vector<lint::OwnedFinding>& findings, lint::RuleId rule,
               std::string_view subject, int line, int column) {
  const lint::OwnedFinding* finding = find_rule(findings, rule, subject);
  ASSERT_NE(finding, nullptr)
      << "expected " << lint::rule_info(rule).code << " on '" << subject << "'";
  EXPECT_EQ(finding->line, line) << lint::rule_info(rule).code;
  EXPECT_EQ(finding->column, column) << lint::rule_info(rule).code;
}

// ---------------------------------------------------------------------------
// Rule metadata
// ---------------------------------------------------------------------------

TEST(LintRuleInfo, CatalogIsStable) {
  // Codes are part of the CLI/report surface; renumbering would break
  // downstream tooling parsing `lint=N:CODE@line` columns.
  EXPECT_STREQ(lint::rule_info(lint::RuleId::UndrivenNet).code, "W101");
  EXPECT_STREQ(lint::rule_info(lint::RuleId::MultiplyDrivenNet).code, "W102");
  EXPECT_STREQ(lint::rule_info(lint::RuleId::UnusedSignal).code, "W103");
  EXPECT_STREQ(lint::rule_info(lint::RuleId::CombinationalLoop).code, "W104");
  EXPECT_STREQ(lint::rule_info(lint::RuleId::InferredLatch).code, "W105");
  EXPECT_STREQ(lint::rule_info(lint::RuleId::CaseWithoutDefault).code, "W106");
  EXPECT_STREQ(lint::rule_info(lint::RuleId::DeadAlwaysBlock).code, "W107");
  EXPECT_STREQ(lint::rule_info(lint::RuleId::RareTriggerComparator).code, "T201");
  EXPECT_STREQ(lint::rule_info(lint::RuleId::FreeRunningCounter).code, "T202");
  EXPECT_STREQ(lint::rule_info(lint::RuleId::OutputBypass).code, "T203");
  EXPECT_STREQ(lint::rule_info(lint::RuleId::OutputDisableGate).code, "T204");
  for (std::size_t i = 0; i < lint::kRuleCount; ++i) {
    const lint::RuleInfo& info = lint::rule_info(static_cast<lint::RuleId>(i));
    EXPECT_EQ(info.trojan_signature, info.code[0] == 'T');
  }
}

// ---------------------------------------------------------------------------
// Structural hygiene rules: positive fixture with exact position, then the
// matching negative.
// ---------------------------------------------------------------------------

TEST(LintHygiene, W101FlagsUndrivenNetReadByLogic) {
  const auto findings = lint_source(
      "module undriven(input wire a, output wire y);\n"
      "  wire ghost;\n"
      "  assign y = a & ghost;\n"
      "endmodule\n");
  expect_at(findings, lint::RuleId::UndrivenNet, "ghost", 2, 8);
}

TEST(LintHygiene, W101SilentOnceDriven) {
  const auto findings = lint_source(
      "module driven(input wire a, output wire y);\n"
      "  wire ghost;\n"
      "  assign ghost = ~a;\n"
      "  assign y = a & ghost;\n"
      "endmodule\n");
  EXPECT_FALSE(has_rule(findings, lint::RuleId::UndrivenNet));
}

TEST(LintHygiene, W102FlagsTwoContinuousDrivers) {
  const auto findings = lint_source(
      "module multi(input wire a, input wire b, output wire y);\n"
      "  wire n;\n"
      "  assign n = a;\n"
      "  assign n = b;\n"
      "  assign y = n;\n"
      "endmodule\n");
  expect_at(findings, lint::RuleId::MultiplyDrivenNet, "n", 2, 8);
}

TEST(LintHygiene, W102FlagsContinuousPlusProceduralDriver) {
  const auto findings = lint_source(
      "module mixed(input wire clk, input wire a, input wire b, output wire y);\n"
      "  reg n;\n"
      "  always @(posedge clk) begin\n"
      "    n <= a;\n"
      "  end\n"
      "  assign n = b;\n"
      "  assign y = n;\n"
      "endmodule\n");
  EXPECT_TRUE(has_rule(findings, lint::RuleId::MultiplyDrivenNet, "n"));
}

TEST(LintHygiene, W102SilentOnSingleDriver) {
  const auto findings = lint_source(
      "module single(input wire a, output wire y);\n"
      "  wire n;\n"
      "  assign n = a;\n"
      "  assign y = n;\n"
      "endmodule\n");
  EXPECT_FALSE(has_rule(findings, lint::RuleId::MultiplyDrivenNet));
}

TEST(LintHygiene, W103FlagsUnreadInternalSignal) {
  const auto findings = lint_source(
      "module unused(input wire a, output wire y);\n"
      "  wire spare;\n"
      "  assign y = a;\n"
      "endmodule\n");
  expect_at(findings, lint::RuleId::UnusedSignal, "spare", 2, 8);
  // Ports are exempt: the unused input does not fire W103.
  EXPECT_FALSE(has_rule(findings, lint::RuleId::UnusedSignal, "a"));
}

TEST(LintHygiene, W104FlagsCombinationalLoop) {
  const auto findings = lint_source(
      "module looped(input wire a, output wire y);\n"
      "  wire p;\n"
      "  wire q;\n"
      "  assign p = ~q;\n"
      "  assign q = p & a;\n"
      "  assign y = p;\n"
      "endmodule\n");
  // The reported node is a signal on the cycle, located at its declaration.
  expect_at(findings, lint::RuleId::CombinationalLoop, "q", 3, 8);
}

TEST(LintHygiene, W104SilentOnSequentialFeedback) {
  const auto findings = lint_source(
      "module seqfeed(input wire clk, input wire rst, output wire [7:0] y);\n"
      "  reg [7:0] acc;\n"
      "  always @(posedge clk) begin\n"
      "    if (rst) acc <= 8'h00;\n"
      "    else acc <= acc + 8'h01;\n"
      "  end\n"
      "  assign y = acc;\n"
      "endmodule\n");
  EXPECT_FALSE(has_rule(findings, lint::RuleId::CombinationalLoop));
}

TEST(LintHygiene, W105FlagsIfWithoutElseInCombBlock) {
  const auto findings = lint_source(
      "module latchy(input wire a, input wire b, output wire y);\n"
      "  reg r;\n"
      "  always @(*) begin\n"
      "    if (a) r = b;\n"
      "  end\n"
      "  assign y = r;\n"
      "endmodule\n");
  expect_at(findings, lint::RuleId::InferredLatch, "r", 3, 3);
}

TEST(LintHygiene, W105SilentWhenEveryPathAssigns) {
  const auto findings = lint_source(
      "module nolatch(input wire a, input wire b, output wire y);\n"
      "  reg r;\n"
      "  always @(*) begin\n"
      "    if (a) r = b;\n"
      "    else r = ~b;\n"
      "  end\n"
      "  assign y = r;\n"
      "endmodule\n");
  EXPECT_FALSE(has_rule(findings, lint::RuleId::InferredLatch));
}

TEST(LintHygiene, W106FlagsCaseWithoutDefault) {
  const auto findings = lint_source(
      "module nodefault(input wire a, input wire b, output wire y);\n"
      "  reg r;\n"
      "  always @(*) begin\n"
      "    case (a)\n"
      "      1'b0: r = b;\n"
      "      1'b1: r = ~b;\n"
      "    endcase\n"
      "  end\n"
      "  assign y = r;\n"
      "endmodule\n");
  expect_at(findings, lint::RuleId::CaseWithoutDefault, "", 4, 5);
}

TEST(LintHygiene, W106SilentWithDefaultItem) {
  const auto findings = lint_source(
      "module gooddefault(input wire a, input wire b, output wire y);\n"
      "  reg r;\n"
      "  always @(*) begin\n"
      "    case (a)\n"
      "      1'b0: r = b;\n"
      "      default: r = ~b;\n"
      "    endcase\n"
      "  end\n"
      "  assign y = r;\n"
      "endmodule\n");
  EXPECT_FALSE(has_rule(findings, lint::RuleId::CaseWithoutDefault));
  EXPECT_FALSE(has_rule(findings, lint::RuleId::InferredLatch));
}

TEST(LintHygiene, W107FlagsAlwaysBlockAssigningNothing) {
  const auto findings = lint_source(
      "module deadblock(input wire clk, output wire y);\n"
      "  always @(posedge clk) begin\n"
      "  end\n"
      "  assign y = clk;\n"
      "endmodule\n");
  expect_at(findings, lint::RuleId::DeadAlwaysBlock, "", 2, 3);
}

// ---------------------------------------------------------------------------
// Trojan-signature rules: the inserter's archetypes fire; the designgen
// decoy shapes (watchdog timers, error gates, plain muxes) stay silent.
// ---------------------------------------------------------------------------

TEST(LintTrojan, T201FlagsWideRareTriggerComparator) {
  const auto findings = lint_source(
      "module cheat(input wire [15:0] bus, input wire d, output wire y);\n"
      "  wire trig;\n"
      "  assign trig = bus == 16'hBEEF;\n"
      "  assign y = trig ? ~d : d;\n"
      "endmodule\n");
  expect_at(findings, lint::RuleId::RareTriggerComparator, "trig", 3, 17);
}

TEST(LintTrojan, T201SilentOnNarrowComparator) {
  // A 4-bit compare hits 1/16 of the input space — routine decode logic,
  // not a rare trigger.
  const auto findings = lint_source(
      "module narrow(input wire [3:0] n, input wire d, output wire y);\n"
      "  wire trig;\n"
      "  assign trig = n == 4'h7;\n"
      "  assign y = trig ? ~d : d;\n"
      "endmodule\n");
  EXPECT_FALSE(has_rule(findings, lint::RuleId::RareTriggerComparator));
}

TEST(LintTrojan, T202FlagsFreeRunningCounterTimeBomb) {
  const auto findings = lint_source(
      "module bomb(input wire clk, input wire rst, input wire d, output wire y);\n"
      "  reg [15:0] cnt;\n"
      "  wire fire;\n"
      "  always @(posedge clk) begin\n"
      "    if (rst) cnt <= 16'h0000;\n"
      "    else cnt <= cnt + 16'h0001;\n"
      "  end\n"
      "  assign fire = cnt == 16'hFFAA;\n"
      "  assign y = fire ? ~d : d;\n"
      "endmodule\n");
  expect_at(findings, lint::RuleId::FreeRunningCounter, "cnt", 2, 14);
  // The trigger tap itself also reads as a rare comparator.
  EXPECT_TRUE(has_rule(findings, lint::RuleId::RareTriggerComparator, "fire"));
}

TEST(LintTrojan, T202SilentOnSelfResettingWatchdog) {
  // A watchdog wraps on its own compare: the counter bounds itself, so it
  // is not the unguarded time-bomb shape.
  const auto findings = lint_source(
      "module watchdog(input wire clk, input wire d, output wire y);\n"
      "  reg [15:0] cnt;\n"
      "  always @(posedge clk) begin\n"
      "    if (cnt == 16'hFFFF) cnt <= 16'h0000;\n"
      "    else cnt <= cnt + 16'h0001;\n"
      "  end\n"
      "  assign y = cnt[0] ^ d;\n"
      "endmodule\n");
  EXPECT_FALSE(has_rule(findings, lint::RuleId::FreeRunningCounter));
}

TEST(LintTrojan, T203FlagsOutputBypassOfTamperedCarrier) {
  const auto findings = lint_source(
      "module leak(input wire sel, input wire [7:0] d, output wire [7:0] y);\n"
      "  wire [7:0] carrier;\n"
      "  wire tap;\n"
      "  assign carrier = d + 8'h01;\n"
      "  assign tap = sel;\n"
      "  assign y = tap ? carrier : (carrier ^ 8'h5A);\n"
      "endmodule\n");
  expect_at(findings, lint::RuleId::OutputBypass, "tap", 6, 10);
}

TEST(LintTrojan, T203SilentOnMuxBetweenUnrelatedNets) {
  const auto findings = lint_source(
      "module fairmux(input wire sel, input wire [7:0] a, input wire [7:0] b,\n"
      "               output wire [7:0] y);\n"
      "  wire pick;\n"
      "  assign pick = sel;\n"
      "  assign y = pick ? a : b;\n"
      "endmodule\n");
  EXPECT_FALSE(has_rule(findings, lint::RuleId::OutputBypass));
}

TEST(LintTrojan, T204FlagsConstantDisableGateWithTriggerEvidence) {
  const auto findings = lint_source(
      "module gate(input wire [15:0] bus, input wire [7:0] d, output wire [7:0] y);\n"
      "  wire kill;\n"
      "  wire [7:0] path;\n"
      "  assign kill = bus == 16'hDEAD;\n"
      "  assign path = d + 8'h02;\n"
      "  assign y = kill ? 8'h00 : path;\n"
      "endmodule\n");
  expect_at(findings, lint::RuleId::OutputDisableGate, "kill", 6, 10);
}

TEST(LintTrojan, T204SilentOnBenignErrorGate) {
  // designgen's ErrorGate decoy: the select is a plain reduction of an
  // input, with no rare-trigger evidence behind it.
  const auto findings = lint_source(
      "module errgate(input wire [7:0] din, input wire [7:0] d, output wire [7:0] y);\n"
      "  wire err;\n"
      "  wire [7:0] path;\n"
      "  assign err = &din;\n"
      "  assign path = d + 8'h02;\n"
      "  assign y = err ? 8'h00 : path;\n"
      "endmodule\n");
  EXPECT_FALSE(has_rule(findings, lint::RuleId::OutputDisableGate));
}

TEST(LintTrojan, CleanNegativesProduceNoFindingsAtAll) {
  // The negative fixtures above assert per-rule silence; the watchdog (the
  // richest decoy) must additionally produce nothing from any rule.
  const auto findings = lint_source(
      "module watchdog(input wire clk, input wire d, output wire y);\n"
      "  reg [15:0] cnt;\n"
      "  always @(posedge clk) begin\n"
      "    if (cnt == 16'hFFFF) cnt <= 16'h0000;\n"
      "    else cnt <= cnt + 16'h0001;\n"
      "  end\n"
      "  assign y = cnt[0] ^ d;\n"
      "endmodule\n");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

TEST(LintRendering, FormatFindingCarriesCodeSlugPositionAndSeverity) {
  const auto findings = lint_source(
      "module unused(input wire a, output wire y);\n"
      "  wire spare;\n"
      "  assign y = a;\n"
      "endmodule\n");
  const lint::OwnedFinding* finding =
      find_rule(findings, lint::RuleId::UnusedSignal, "spare");
  ASSERT_NE(finding, nullptr);
  EXPECT_EQ(lint::format_finding(*finding),
            "W103 unused-signal unused.spare:2:8 [info] signal 'spare' is never read");
}

// ---------------------------------------------------------------------------
// Verdict bit-identity: lint is strictly additive to DetectionReport.
// ---------------------------------------------------------------------------

class LintVerdictIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::DetectorConfig config;
    config.seed = 11;
    config.gan_target_per_class = 20;
    config.gan.epochs = 10;
    config.fusion.train.epochs = 5;
    config.fusion.train.validation_fraction = 0.0;
    core::NoodleDetector detector(config);

    data::CorpusSpec spec;
    spec.design_count = 48;
    spec.infected_fraction = 0.35;
    spec.seed = 11;
    corpus_ = new std::vector<data::CircuitSample>(data::build_corpus(spec));
    detector.fit(*corpus_);
    model_ = detector.fitted_model();
  }

  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
    model_.reset();
  }

  static void expect_identical_verdict(const core::DetectionReport& a,
                                       const core::DetectionReport& b) {
    EXPECT_EQ(a.predicted_label, b.predicted_label);
    EXPECT_EQ(a.probability, b.probability);
    EXPECT_EQ(a.p_values, b.p_values);
    EXPECT_EQ(a.region.p, b.region.p);
    EXPECT_EQ(a.region.contains, b.region.contains);
    EXPECT_EQ(a.region.confidence, b.region.confidence);
    EXPECT_EQ(a.region.credibility, b.region.credibility);
    EXPECT_EQ(a.fusion_used, b.fusion_used);
  }

  static std::shared_ptr<const core::FittedModel> model_;
  static std::vector<data::CircuitSample>* corpus_;
};

std::shared_ptr<const core::FittedModel> LintVerdictIdentity::model_;
std::vector<data::CircuitSample>* LintVerdictIdentity::corpus_ = nullptr;

TEST_F(LintVerdictIdentity, ScanVerilogVerdictUnchangedByLint) {
  for (std::size_t i = 0; i < corpus_->size(); i += 7) {
    const std::string& source = (*corpus_)[i].verilog;
    const core::DetectionReport plain = model_->scan_verilog(source);
    const core::DetectionReport linted = model_->scan_verilog(source, true);
    expect_identical_verdict(plain, linted);
    EXPECT_FALSE(plain.lint_ran);
    EXPECT_TRUE(plain.lint_findings.empty());
    EXPECT_TRUE(linted.lint_ran);
  }
}

TEST_F(LintVerdictIdentity, ScanVerilogManyVerdictUnchangedByLint) {
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < corpus_->size() && sources.size() < 12; i += 4) {
    sources.push_back((*corpus_)[i].verilog);
  }
  const auto plain = model_->scan_verilog_many(sources, 2);
  const auto linted = model_->scan_verilog_many(sources, 2, true);
  ASSERT_EQ(plain.size(), linted.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    expect_identical_verdict(plain[i], linted[i]);
    EXPECT_FALSE(plain[i].lint_ran);
    EXPECT_TRUE(linted[i].lint_ran);
  }
}

TEST_F(LintVerdictIdentity, InfectedScanSurfacesTrojanSignatureFindings) {
  // Every infected corpus sample must carry at least one T2xx finding when
  // scanned with lint on — the report-level echo of bench_lint_matrix.
  std::size_t infected_checked = 0;
  for (const data::CircuitSample& circuit : *corpus_) {
    if (!circuit.infected) continue;
    if (++infected_checked > 6) break;
    const core::DetectionReport report = model_->scan_verilog(circuit.verilog, true);
    bool trojan_flagged = false;
    for (const lint::OwnedFinding& finding : report.lint_findings) {
      trojan_flagged |= lint::rule_info(finding.rule).trojan_signature;
    }
    EXPECT_TRUE(trojan_flagged) << "no T2xx finding for " << circuit.name;
  }
  EXPECT_GT(infected_checked, 0u);
}

// ---------------------------------------------------------------------------
// Steady-state allocation discipline
// ---------------------------------------------------------------------------

TEST(LintAllocation, WarmRunIsAllocationFree) {
  // A fixture broad enough to exercise every rule path: hygiene findings,
  // a latch, a counter, and trojan-shaped comparators and muxes.
  const std::string source =
      "module busy(input wire clk, input wire rst, input wire [15:0] bus,\n"
      "            input wire d, output wire y, output wire [7:0] out);\n"
      "  wire ghost;\n"
      "  wire spare;\n"
      "  reg r;\n"
      "  reg [15:0] cnt;\n"
      "  wire fire;\n"
      "  wire [7:0] carrier;\n"
      "  always @(*) begin\n"
      "    if (d) r = 1'b1;\n"
      "  end\n"
      "  always @(posedge clk) begin\n"
      "    if (rst) cnt <= 16'h0000;\n"
      "    else cnt <= cnt + 16'h0001;\n"
      "  end\n"
      "  assign fire = cnt == 16'hFFAA;\n"
      "  assign carrier = bus[7:0] + 8'h01;\n"
      "  assign y = fire ? ~d : (d & ghost & r);\n"
      "  assign out = fire ? carrier : (carrier ^ 8'h5A);\n"
      "endmodule\n";

  verilog::ParserWorkspace parser;
  graph::NetGraph netgraph(parser.symbols());
  graph::BuildScratch scratch;
  lint::LintWorkspace workspace;

  // Warm every grow-only buffer: parser arena, graph, and lint workspace.
  for (int warm = 0; warm < 3; ++warm) {
    const verilog::fast::Module& module = parser.parse_single(source);
    graph::build_netgraph(module, netgraph, scratch);
    workspace.run(module, netgraph, *parser.symbols());
  }

  const verilog::fast::Module& module = parser.parse_single(source);
  graph::build_netgraph(module, netgraph, scratch);
  const std::size_t before = g_allocation_count.load();
  const std::span<const lint::Finding> findings =
      workspace.run(module, netgraph, *parser.symbols());
  EXPECT_EQ(g_allocation_count.load() - before, 0u)
      << "warm LintWorkspace::run() must not touch the heap";
  bool counter_flagged = false;
  for (const lint::Finding& finding : findings) {
    counter_flagged |= finding.rule == lint::RuleId::FreeRunningCounter;
  }
  EXPECT_TRUE(counter_flagged);  // the run still found the planted shapes
}

}  // namespace
}  // namespace noodle
