#pragma once
// Recursive-descent parser for the supported Verilog-2001 subset:
// modules with ANSI or non-ANSI port declarations, wire/reg/integer nets,
// parameters, continuous assigns, always/initial blocks (begin/end, if/else,
// case/casez, for), module instantiation with named connections, and the
// full synthesizable expression grammar with standard precedence.
//
// Out-of-subset constructs (4-state literals, memories, functions, generate)
// raise ParseError with a source location; the corpus generator never emits
// them, and user-supplied files get a clear diagnostic instead of a silently
// wrong feature vector. So does nesting past kMaxNestingDepth.
//
// There is one grammar implementation: it parses into the arena AST
// (fast_ast.h) through a reusable ParserWorkspace. The classic owning
// entry points parse_source()/parse_module() are thin wrappers that convert
// the arena tree into the mutable ast.h form for consumers that rewrite RTL.

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/arena.h"
#include "util/intern.h"
#include "verilog/ast.h"
#include "verilog/fast_ast.h"
#include "verilog/token.h"

namespace noodle::verilog {

/// Deepest nesting a parse accepts, counted two ways: parser recursion
/// (parentheses, braces, selects, unary operators, ternaries, begin/end,
/// if/else, case) and expression tree height (left-associative chains
/// such as a+b+c or a[0][0] deepen the tree without recursing). Past it
/// the parse throws ParseError at the offending token. Every walk over a
/// parsed tree — netgraph lowering, tabular features, lint, to_owned, the
/// printer — recurses at most statement depth + expression height, so this
/// one bound keeps hostile RTL from exhausting a thread's stack.
/// data::designgen output nests about 10 levels (tests/test_parser.cpp
/// checks the margin).
inline constexpr std::size_t kMaxNestingDepth = 1024;

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, int line, int column);
  int line() const noexcept { return line_; }
  int column() const noexcept { return column_; }

 private:
  int line_;
  int column_;
};

/// Reusable parsing state: token buffer, AST arena, intern pool, and the
/// scratch stacks the parser builds sibling lists on. Grow-only — after the
/// first few parses every subsequent parse of similar-sized RTL performs
/// zero heap allocations. One workspace per thread; never share one across
/// threads, and never let a returned fast::SourceFile/Module outlive the
/// next parse() (it lives in the arena, which parse() resets).
class ParserWorkspace {
 public:
  /// Distinct spellings retained across parses before the intern pool is
  /// reset and re-seeded (at the start of the *next* parse). Bounds the
  /// memory of a long-lived worker featurizing arbitrarily diverse RTL —
  /// without the trim, every net name and constant spelling ever seen
  /// would stay interned forever. Far above any single design's
  /// vocabulary, so steady-state reuse on similar inputs never trips it.
  static constexpr std::size_t kDefaultMaxRetainedSymbols = 1u << 16;

  explicit ParserWorkspace(
      std::size_t max_retained_symbols = kDefaultMaxRetainedSymbols);

  ParserWorkspace(const ParserWorkspace&) = delete;
  ParserWorkspace& operator=(const ParserWorkspace&) = delete;

  /// Parses one source file into the arena. The returned reference (and
  /// every node it reaches) is valid until the next parse()/reset() — as
  /// are all symbols minted for it (the retention trim only runs before a
  /// parse, never during one).
  const fast::SourceFile& parse(std::string_view source);

  /// Parses a file expected to contain exactly one module.
  const fast::Module& parse_single(std::string_view source);

  /// The intern pool backing identifier symbols. Pre-seeded with the fixed
  /// verilog vocabulary (symbols.h), shared so a NetGraph can adopt it.
  const std::shared_ptr<util::SymbolTable>& symbols() const noexcept { return symbols_; }

  const util::Arena& arena() const noexcept { return arena_; }

  /// Drops every non-vocabulary symbol now (normally automatic via the
  /// retention limit). Invalidates symbols held by anything produced by
  /// earlier parses — the same lifetime rule as the arena itself.
  void reset_symbols();

 private:
  friend class FastParser;

  std::vector<Token> tokens_;
  util::Arena arena_;
  std::shared_ptr<util::SymbolTable> symbols_;

  // Scratch stacks for sibling lists (mark/commit discipline; see parser.cpp).
  std::vector<const fast::Expr*> expr_stack_;
  std::vector<const fast::Stmt*> stmt_stack_;
  std::vector<fast::CaseItem> case_stack_;
  std::vector<fast::SensItem> sens_stack_;
  std::vector<fast::ParamDecl> param_stack_;
  std::vector<fast::PortDecl> port_stack_;
  std::vector<fast::NetDecl> net_stack_;
  std::vector<fast::ContAssign> assign_stack_;
  std::vector<fast::AlwaysBlock> always_stack_;
  std::vector<fast::InitialBlock> initial_stack_;
  std::vector<fast::Instance> inst_stack_;
  std::vector<fast::PortConnection> conn_stack_;
  std::vector<fast::Module> module_stack_;
  std::vector<std::pair<util::Symbol, std::int64_t>> param_values_;
  std::size_t max_retained_symbols_;
};

/// Parses one source file (one or more modules). Throws LexError/ParseError.
SourceFile parse_source(std::string_view source);

/// Parses a file expected to contain exactly one module.
Module parse_module(std::string_view source);

/// Converts an arena tree into the owning ast.h form (deep copy; the result
/// is independent of the workspace).
SourceFile to_owned(const fast::SourceFile& file, const util::SymbolTable& symbols);
Module to_owned(const fast::Module& module, const util::SymbolTable& symbols);

}  // namespace noodle::verilog
