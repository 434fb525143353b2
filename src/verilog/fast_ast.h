#pragma once
// Arena AST — the allocation-free mirror of ast.h used by the featurization
// hot path.
//
// Nodes live in a util::Arena owned by a verilog::ParserWorkspace: child
// lists are arena-resident spans, identifiers are u32 symbols interned once
// into the workspace's SymbolTable, and operator spellings are PunctIds
// into the static punct table — so a steady-state parse touches the heap
// zero times and the whole tree is dropped by one Arena::reset().
//
// The mutable owned AST in ast.h remains the tree for everything that
// *rewrites* RTL (trojan::TrojanInserter, data::designgen, the printer);
// parse_source()/parse_module() convert this arena form into it. Field
// names deliberately match ast.h so the feature extractors can be written
// once as templates over either representation.

#include <cstdint>
#include <optional>
#include <span>

#include "util/intern.h"
#include "verilog/ast.h"
#include "verilog/symbols.h"

namespace noodle::verilog::fast {

using util::Symbol;

/// 1-based source position of the token that started a node's production,
/// threaded through from the lexer so downstream analyses (lint) can point
/// diagnostics at the offending RTL. {0, 0} means "position unknown".
struct SrcLoc {
  int line = 0;
  int column = 0;
};

struct Expr {
  ExprKind kind = ExprKind::Number;
  PunctId op = 0;       // operator spelling for Unary/Binary
  std::uint16_t height = 1;  // 1 + tallest operand; <= kMaxNestingDepth
  int width = 0;        // Number payload
  std::uint64_t value = 0;
  Symbol name = util::kNoSymbol;  // Identifier payload
  SrcLoc loc;
  std::span<const Expr* const> operands{};  // layout by kind, as in ast.h
};

struct Stmt;

struct CaseItem {
  std::span<const Expr* const> labels{};  // empty => default
  const Stmt* body = nullptr;
};

struct Stmt {
  StmtKind kind = StmtKind::Null;
  SrcLoc loc;

  const Expr* cond = nullptr;         // If condition / Case subject / For condition
  const Stmt* then_branch = nullptr;  // If
  const Stmt* else_branch = nullptr;  // If (may be null)
  std::span<const Stmt* const> body{};  // Block children / For body (single element)
  std::span<const CaseItem> case_items{};

  const Expr* lhs = nullptr;  // assignments
  const Expr* rhs = nullptr;
  const Stmt* for_init = nullptr;
  const Stmt* for_step = nullptr;
};

struct PortDecl {
  PortDir dir = PortDir::Input;
  NetKind net = NetKind::Wire;
  Symbol name = util::kNoSymbol;
  std::optional<BitRange> range;
  SrcLoc loc;
};

struct NetDecl {
  NetKind kind = NetKind::Wire;
  Symbol name = util::kNoSymbol;
  std::optional<BitRange> range;
  const Expr* init = nullptr;
  SrcLoc loc;
};

struct ParamDecl {
  bool local = false;
  Symbol name = util::kNoSymbol;
  const Expr* value = nullptr;
};

struct ContAssign {
  const Expr* lhs = nullptr;
  const Expr* rhs = nullptr;
  SrcLoc loc;
};

struct SensItem {
  EdgeKind edge = EdgeKind::None;
  Symbol signal = util::kNoSymbol;
};

struct AlwaysBlock {
  bool star = false;
  SrcLoc loc;
  std::span<const SensItem> sensitivity{};
  const Stmt* body = nullptr;

  bool is_sequential() const noexcept {
    for (const SensItem& item : sensitivity) {
      if (item.edge != EdgeKind::None) return true;
    }
    return false;
  }
};

struct InitialBlock {
  const Stmt* body = nullptr;
};

struct PortConnection {
  Symbol port = util::kNoSymbol;  // kNoSymbol => positional connection
  const Expr* actual = nullptr;   // null for unconnected .port()
};

struct Instance {
  Symbol module_name = util::kNoSymbol;
  SrcLoc loc;
  Symbol instance_name = util::kNoSymbol;
  std::span<const PortConnection> connections{};
};

struct Module {
  Symbol name = util::kNoSymbol;
  SrcLoc loc;
  std::span<const ParamDecl> params{};
  std::span<const PortDecl> ports{};
  std::span<const NetDecl> nets{};
  std::span<const ContAssign> assigns{};
  std::span<const AlwaysBlock> always_blocks{};
  std::span<const InitialBlock> initial_blocks{};
  std::span<const Instance> instances{};
};

struct SourceFile {
  std::span<const Module> modules{};
};

}  // namespace noodle::verilog::fast
