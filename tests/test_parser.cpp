#include "verilog/parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "data/corpus.h"
#include "verilog/printer.h"

namespace noodle::verilog {
namespace {

TEST(Parser, MinimalModule) {
  const Module m = parse_module("module empty; endmodule");
  EXPECT_EQ(m.name, "empty");
  EXPECT_TRUE(m.ports.empty());
}

TEST(Parser, AnsiPortsWithRanges) {
  const Module m = parse_module(
      "module top (input clk, input [7:0] data, output reg [3:0] out); endmodule");
  ASSERT_EQ(m.ports.size(), 3u);
  EXPECT_EQ(m.ports[0].dir, PortDir::Input);
  EXPECT_FALSE(m.ports[0].range.has_value());
  ASSERT_TRUE(m.ports[1].range.has_value());
  EXPECT_EQ(m.ports[1].range->width(), 8);
  EXPECT_EQ(m.ports[2].net, NetKind::Reg);
  // output reg also registers a net declaration.
  EXPECT_NE(m.find_net("out"), nullptr);
}

TEST(Parser, AnsiPortsDirectionPersistsAcrossCommas) {
  const Module m =
      parse_module("module top (input [3:0] a, b, output y); endmodule");
  ASSERT_EQ(m.ports.size(), 3u);
  EXPECT_EQ(m.ports[1].dir, PortDir::Input);
  ASSERT_TRUE(m.ports[1].range.has_value());
  EXPECT_EQ(m.ports[1].range->width(), 4);
  EXPECT_EQ(m.ports[2].dir, PortDir::Output);
}

TEST(Parser, NonAnsiPortDeclarations) {
  const Module m = parse_module(
      "module top (clk, data, out);\n"
      "  input clk;\n"
      "  input [15:0] data;\n"
      "  output reg [7:0] out;\n"
      "endmodule");
  ASSERT_EQ(m.ports.size(), 3u);
  EXPECT_EQ(m.ports[1].range->width(), 16);
  EXPECT_EQ(m.ports[2].net, NetKind::Reg);
}

TEST(Parser, ParameterHeaderAndBody) {
  const Module m = parse_module(
      "module top #(parameter W = 8, parameter D = W * 2) (input [W-1:0] x);\n"
      "  localparam HALF = W / 2;\n"
      "  wire [D-1:0] wide;\n"
      "endmodule");
  ASSERT_EQ(m.params.size(), 3u);
  EXPECT_FALSE(m.params[0].local);
  EXPECT_TRUE(m.params[2].local);
  EXPECT_EQ(m.ports[0].range->width(), 8);    // W-1:0
  EXPECT_EQ(m.find_net("wide")->range->width(), 16);  // D-1:0 with D = 16
}

TEST(Parser, WireWithInitializer) {
  const Module m = parse_module(
      "module top (input a, input b);\n  wire x = a & b;\nendmodule");
  const NetDecl* net = m.find_net("x");
  ASSERT_NE(net, nullptr);
  ASSERT_NE(net->init, nullptr);
  EXPECT_EQ(net->init->name, "&");
}

TEST(Parser, MultipleNetsPerDeclaration) {
  const Module m = parse_module(
      "module top;\n  reg [3:0] a, b, c;\n  integer i;\nendmodule");
  EXPECT_EQ(m.nets.size(), 4u);
  EXPECT_EQ(m.find_net("b")->range->width(), 4);
  EXPECT_EQ(m.find_net("i")->kind, NetKind::Integer);
}

TEST(Parser, ContinuousAssign) {
  const Module m = parse_module(
      "module top (input [3:0] a, output [3:0] y);\n  assign y = a + 4'd1;\nendmodule");
  ASSERT_EQ(m.assigns.size(), 1u);
  EXPECT_EQ(m.assigns[0].rhs->name, "+");
}

TEST(Parser, ExpressionPrecedence) {
  // a + b * c must parse as a + (b * c).
  const Module m = parse_module(
      "module top (input [7:0] a, b, c, output [7:0] y);\n"
      "  assign y = a + b * c;\nendmodule");
  const Expr& root = *m.assigns[0].rhs;
  EXPECT_EQ(root.name, "+");
  EXPECT_EQ(root.operands[1]->name, "*");
}

TEST(Parser, ComparisonBindsLooserThanShift) {
  const Module m = parse_module(
      "module top (input [7:0] a, output y);\n"
      "  assign y = a << 1 > a;\nendmodule");
  EXPECT_EQ(m.assigns[0].rhs->name, ">");
}

TEST(Parser, TernaryNestsRight) {
  const Module m = parse_module(
      "module top (input s, t, input [1:0] a, b, c, output [1:0] y);\n"
      "  assign y = s ? a : t ? b : c;\nendmodule");
  const Expr& root = *m.assigns[0].rhs;
  EXPECT_EQ(root.kind, ExprKind::Ternary);
  EXPECT_EQ(root.operands[2]->kind, ExprKind::Ternary);
}

TEST(Parser, UnaryReductionAndConcat) {
  const Module m = parse_module(
      "module top (input [7:0] a, output y, output [15:0] z);\n"
      "  assign y = ^a;\n"
      "  assign z = {a, 8'h55};\nendmodule");
  EXPECT_EQ(m.assigns[0].rhs->kind, ExprKind::Unary);
  EXPECT_EQ(m.assigns[1].rhs->kind, ExprKind::Concat);
}

TEST(Parser, Replication) {
  const Module m = parse_module(
      "module top (input b, output [7:0] y);\n  assign y = {8{b}};\nendmodule");
  EXPECT_EQ(m.assigns[0].rhs->kind, ExprKind::Replicate);
}

TEST(Parser, IndexAndRangeSelect) {
  const Module m = parse_module(
      "module top (input [7:0] a, output y, output [3:0] z);\n"
      "  assign y = a[3];\n"
      "  assign z = a[7:4];\nendmodule");
  EXPECT_EQ(m.assigns[0].rhs->kind, ExprKind::Index);
  EXPECT_EQ(m.assigns[1].rhs->kind, ExprKind::Range);
}

TEST(Parser, AlwaysPosedgeWithReset) {
  const Module m = parse_module(
      "module top (input clk, input rst, output reg q);\n"
      "  always @(posedge clk or negedge rst)\n"
      "    if (!rst) q <= 1'd0; else q <= 1'd1;\n"
      "endmodule");
  ASSERT_EQ(m.always_blocks.size(), 1u);
  const AlwaysBlock& block = m.always_blocks[0];
  ASSERT_EQ(block.sensitivity.size(), 2u);
  EXPECT_EQ(block.sensitivity[0].edge, EdgeKind::Posedge);
  EXPECT_EQ(block.sensitivity[1].edge, EdgeKind::Negedge);
  EXPECT_TRUE(block.is_sequential());
  EXPECT_EQ(block.body->kind, StmtKind::If);
}

TEST(Parser, AlwaysStarForms) {
  const Module a = parse_module(
      "module top (input x, output reg y);\n  always @(*) y = x;\nendmodule");
  EXPECT_TRUE(a.always_blocks[0].star);
  const Module b = parse_module(
      "module top (input x, output reg y);\n  always @* y = x;\nendmodule");
  EXPECT_TRUE(b.always_blocks[0].star);
  EXPECT_FALSE(b.always_blocks[0].is_sequential());
}

TEST(Parser, CaseWithMultipleLabelsAndDefault) {
  const Module m = parse_module(
      "module top (input [1:0] s, output reg y);\n"
      "  always @(*)\n"
      "    case (s)\n"
      "      2'd0, 2'd1: y = 1'd0;\n"
      "      default: y = 1'd1;\n"
      "    endcase\n"
      "endmodule");
  const Stmt& body = *m.always_blocks[0].body;
  ASSERT_EQ(body.kind, StmtKind::Case);
  ASSERT_EQ(body.case_items.size(), 2u);
  EXPECT_EQ(body.case_items[0].labels.size(), 2u);
  EXPECT_TRUE(body.case_items[1].labels.empty());  // default
}

TEST(Parser, ForLoop) {
  const Module m = parse_module(
      "module top (output reg [7:0] y);\n"
      "  integer i;\n"
      "  always @(*)\n"
      "    begin\n"
      "      y = 8'd0;\n"
      "      for (i = 0; i < 8; i = i + 1)\n"
      "        y = y + 8'd1;\n"
      "    end\n"
      "endmodule");
  const Stmt& block = *m.always_blocks[0].body;
  ASSERT_EQ(block.body.size(), 2u);
  EXPECT_EQ(block.body[1]->kind, StmtKind::For);
}

TEST(Parser, SystemTasksIgnored) {
  const Module m = parse_module(
      "module top;\n  initial begin $display(\"hi\", 1+2); $finish; end\nendmodule");
  ASSERT_EQ(m.initial_blocks.size(), 1u);
}

TEST(Parser, InstanceWithNamedConnections) {
  const SourceFile f = parse_source(
      "module leaf (input a, output y); assign y = a; endmodule\n"
      "module top (input x, output z);\n"
      "  leaf u0 (.a(x), .y(z));\n"
      "endmodule");
  ASSERT_EQ(f.modules.size(), 2u);
  const Module& top = f.modules[1];
  ASSERT_EQ(top.instances.size(), 1u);
  EXPECT_EQ(top.instances[0].module_name, "leaf");
  EXPECT_EQ(top.instances[0].connections[0].port, "a");
}

TEST(Parser, InstanceWithPositionalConnections) {
  const Module m = parse_module(
      "module top (input x, output z);\n  leaf u0 (x, z);\nendmodule");
  ASSERT_EQ(m.instances[0].connections.size(), 2u);
  EXPECT_TRUE(m.instances[0].connections[0].port.empty());
}

TEST(Parser, UnconnectedNamedPort) {
  const Module m = parse_module(
      "module top (input x);\n  leaf u0 (.a(x), .y());\nendmodule");
  EXPECT_EQ(m.instances[0].connections[1].actual, nullptr);
}

TEST(Parser, WidthOfQueries) {
  const Module m = parse_module(
      "module top (input [7:0] a, input b);\n  wire [3:0] w;\nendmodule");
  EXPECT_EQ(m.width_of("a"), 8);
  EXPECT_EQ(m.width_of("b"), 1);
  EXPECT_EQ(m.width_of("w"), 4);
  EXPECT_EQ(m.width_of("nope"), 0);
}

TEST(Parser, ParseModuleRejectsMultiModuleFile) {
  EXPECT_THROW(parse_module("module a; endmodule module b; endmodule"),
               ParseError);
}

struct BadSource {
  const char* text;
};

class ParserRejects : public ::testing::TestWithParam<BadSource> {};

TEST_P(ParserRejects, ThrowsParseError) {
  EXPECT_THROW(parse_source(GetParam().text), ParseError);
}

INSTANTIATE_TEST_SUITE_P(
    BadInputs, ParserRejects,
    ::testing::Values(
        BadSource{""},                                        // no modules
        BadSource{"module"},                                  // truncated
        BadSource{"module m (input a; endmodule"},            // bad port list
        BadSource{"module m; assign = 1; endmodule"},         // missing lhs
        BadSource{"module m; wire [x:0] w; endmodule"},       // non-const range
        BadSource{"module m; always @(posedge) ; endmodule"}, // missing signal
        BadSource{"module m; if (1) ; endmodule"},            // stmt outside always
        BadSource{"module m; begin end endmodule"}));         // bare block

TEST(Parser, ErrorMessagesCarryLocation) {
  try {
    parse_source("module m;\n  wire [bad:0] w;\nendmodule");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

// --- nesting bound ------------------------------------------------------------

std::string repeat(const std::string& piece, std::size_t times) {
  std::string out;
  out.reserve(piece.size() * times);
  for (std::size_t i = 0; i < times; ++i) out += piece;
  return out;
}

/// Line 2 holds the nested construct, so error positions are checkable.
std::string in_assign(const std::string& expr) {
  return "module m(input [1:0] a, output y);\nassign y = " + expr + ";\nendmodule\n";
}
std::string in_always(const std::string& body) {
  return "module m(input a, output reg y);\nalways @(*) " + body + "\nendmodule\n";
}

struct NestingShape {
  const char* name;
  std::string (*build)(std::size_t depth);
};

class ParserNesting : public ::testing::TestWithParam<NestingShape> {};

TEST_P(ParserNesting, AcceptsHalfTheBound) {
  EXPECT_NO_THROW(parse_module(GetParam().build(kMaxNestingDepth / 2)));
}

TEST_P(ParserNesting, RejectsHostileDepthWithAPosition) {
  // 200k levels: the size of the ~400 KB one-line request that used to
  // overflow the stack. Now it is an ordinary ParseError on line 2.
  try {
    parse_module(GetParam().build(200000));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"), std::string::npos)
        << e.what();
    EXPECT_EQ(e.line(), 2);
    EXPECT_GT(e.column(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParserNesting,
    ::testing::Values(
        NestingShape{"Parentheses",
                     [](std::size_t d) {
                       return in_assign(repeat("(", d) + "a" + repeat(")", d));
                     }},
        NestingShape{"Unary", [](std::size_t d) { return in_assign(repeat("~", d) + "a"); }},
        NestingShape{"Ternary",
                     [](std::size_t d) { return in_assign(repeat("a ? a : ", d) + "a"); }},
        // Left-associative chains deepen the tree without recursing in the
        // parser; the bound holds on tree height too.
        NestingShape{"BinaryChain",
                     [](std::size_t d) { return in_assign("a" + repeat(" + a", d)); }},
        NestingShape{"SelectChain",
                     [](std::size_t d) { return in_assign("a" + repeat("[0]", d)); }},
        NestingShape{"BeginEnd",
                     [](std::size_t d) {
                       return in_always(repeat("begin ", d) + "y = a;" + repeat(" end", d));
                     }},
        NestingShape{"IfElse",
                     [](std::size_t d) {
                       return in_always(repeat("if (a) y = a; else ", d) + "y = a;");
                     }}),
    [](const auto& info) { return std::string(info.param.name); });

/// Statement depth plus the tallest expression under it: how deep a
/// recursive walk over the tree goes.
std::size_t walk_depth(const fast::Stmt* stmt) {
  if (stmt == nullptr) return 0;
  std::size_t deepest = 0;
  for (const fast::Expr* e : {stmt->cond, stmt->lhs, stmt->rhs}) {
    if (e != nullptr) deepest = std::max<std::size_t>(deepest, e->height);
  }
  for (const fast::Stmt* child :
       {stmt->then_branch, stmt->else_branch, stmt->for_init, stmt->for_step}) {
    deepest = std::max(deepest, walk_depth(child));
  }
  for (const fast::Stmt* child : stmt->body) deepest = std::max(deepest, walk_depth(child));
  for (const fast::CaseItem& item : stmt->case_items) {
    for (const fast::Expr* label : item.labels) {
      deepest = std::max<std::size_t>(deepest, label->height);
    }
    deepest = std::max(deepest, walk_depth(item.body));
  }
  return 1 + deepest;
}

TEST(Parser, BoundIsFarAboveGeneratedDesigns) {
  data::CorpusSpec spec;
  spec.design_count = 96;
  spec.infected_fraction = 0.5;
  spec.seed = 5;
  ParserWorkspace workspace;
  std::size_t deepest = 0;
  for (const data::CircuitSample& circuit : data::build_corpus(spec)) {
    const fast::Module& module = workspace.parse_single(circuit.verilog);
    for (const fast::ContAssign& assign : module.assigns) {
      deepest = std::max<std::size_t>(deepest, assign.rhs->height);
    }
    for (const fast::NetDecl& net : module.nets) {
      if (net.init != nullptr) deepest = std::max<std::size_t>(deepest, net.init->height);
    }
    for (const fast::AlwaysBlock& block : module.always_blocks) {
      deepest = std::max(deepest, walk_depth(block.body));
    }
  }
  EXPECT_GT(deepest, 1u);
  EXPECT_LE(deepest * 16, kMaxNestingDepth) << "deepest generated nesting " << deepest;
}

}  // namespace
}  // namespace noodle::verilog
