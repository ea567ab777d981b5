//===- qasm/Parser.cpp - OpenQASM 2.0 parser ----------------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Parser.h"

#include "qasm/Grammar.h"

using namespace qlosure;
using namespace qlosure::qasm;
using namespace qlosure::qasm::detail;

namespace {

/// Collects every statement into a Program.
struct ProgramSink {
  using Builder = TreeBuilder;

  void version(std::string_view Version) { Prog.Version = Version; }
  void include(std::string_view Path) { Prog.Includes.emplace_back(Path); }

  bool reg(bool IsQuantum, std::string_view Name, uint32_t Size) {
    Statement &Stmt = add(Statement::Kind::Reg);
    Stmt.Reg.IsQuantum = IsQuantum;
    Stmt.Reg.Name = std::string(Name);
    Stmt.Reg.Size = Size;
    return true;
  }
  bool gateDef(GateDef &&Def) {
    add(Statement::Kind::Gate).Gate = std::move(Def);
    return true;
  }
  bool call(std::string_view Name, unsigned Line,
            std::vector<std::unique_ptr<Expr>> &Params,
            const std::vector<ArgRef> &Args) {
    add(Statement::Kind::Call).Call = makeGateCall(Name, Line, Params, Args);
    return true;
  }
  bool measure(const ArgRef &Src, const ArgRef &Dst) {
    Statement &Stmt = add(Statement::Kind::Measure);
    Stmt.Measure.Src = toArgument(Src);
    Stmt.Measure.Dst = toArgument(Dst);
    return true;
  }
  bool barrier(const std::vector<ArgRef> &Args) {
    Statement &Stmt = add(Statement::Kind::Barrier);
    for (const ArgRef &A : Args)
      Stmt.Barrier.Args.push_back(toArgument(A));
    return true;
  }
  bool reset(const ArgRef &Arg) {
    add(Statement::Kind::Reset).ResetArg = toArgument(Arg);
    return true;
  }

  Statement &add(Statement::Kind Kind) {
    Statement &Stmt = Prog.Statements.emplace_back();
    Stmt.StmtKind = Kind;
    return Stmt;
  }

  Program Prog;
};

} // namespace

ParseResult qasm::parseQasm(std::string_view Source) {
  ProgramSink Sink;
  Grammar<ProgramSink> G(Source, Sink);
  ParseResult Result;
  if (G.run())
    Result.Prog = std::move(Sink.Prog);
  else
    Result.Error = G.error().empty() ? "unknown parse error" : G.error();
  return Result;
}
