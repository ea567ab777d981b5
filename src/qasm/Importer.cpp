//===- qasm/Importer.cpp - OpenQASM 2.0 to circuit IR --------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Importer.h"

#include "qasm/Grammar.h"
#include "qasm/Parser.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <unordered_map>

using namespace qlosure;
using namespace qlosure::qasm;
using namespace qlosure::qasm::detail;

namespace {

/// A builtin (qelib1) gate descriptor.
struct BuiltinGate {
  GateKind Kind;
  unsigned NumParams;
  unsigned NumQubits;
};

const BuiltinGate *findBuiltin(std::string_view Name) {
  struct Entry {
    std::string_view Name;
    BuiltinGate Gate;
  };
  static constexpr Entry Table[] = {
      {"id", {GateKind::I, 0, 1}},      {"x", {GateKind::X, 0, 1}},
      {"y", {GateKind::Y, 0, 1}},       {"z", {GateKind::Z, 0, 1}},
      {"h", {GateKind::H, 0, 1}},       {"s", {GateKind::S, 0, 1}},
      {"sdg", {GateKind::Sdg, 0, 1}},   {"t", {GateKind::T, 0, 1}},
      {"tdg", {GateKind::Tdg, 0, 1}},   {"sx", {GateKind::SX, 0, 1}},
      {"rx", {GateKind::RX, 1, 1}},     {"ry", {GateKind::RY, 1, 1}},
      {"rz", {GateKind::RZ, 1, 1}},     {"p", {GateKind::P, 1, 1}},
      {"u1", {GateKind::U1, 1, 1}},     {"u2", {GateKind::U2, 2, 1}},
      {"u3", {GateKind::U3, 3, 1}},     {"u", {GateKind::U3, 3, 1}},
      {"cx", {GateKind::CX, 0, 2}},     {"CX", {GateKind::CX, 0, 2}},
      {"cz", {GateKind::CZ, 0, 2}},     {"cp", {GateKind::CP, 1, 2}},
      {"cu1", {GateKind::CP, 1, 2}},    {"crz", {GateKind::CRZ, 1, 2}},
      {"rzz", {GateKind::RZZ, 1, 2}},   {"ch", {GateKind::CH, 0, 2}},
      {"cy", {GateKind::CY, 0, 2}},     {"swap", {GateKind::Swap, 0, 2}},
      {"ccx", {GateKind::CCX, 0, 3}},   {"cswap", {GateKind::CSwap, 0, 3}},
  };
  for (const Entry &E : Table)
    if (E.Name == Name)
      return &E.Gate;
  return nullptr;
}

/// One resolved argument: Count consecutive qubits from First. A single
/// qubit (q[i], or a one-qubit register) has Count 1; a wider register
/// broadcasts.
struct Operand {
  int32_t First = 0;
  uint32_t Count = 1;

  int32_t at(size_t B) const {
    return Count == 1 ? First : First + static_cast<int32_t>(B);
  }
};

using FormalQubits = std::map<std::string, int32_t>;
using FormalParams = std::map<std::string, double>;

/// The lowering both import paths share: the register and gate tables,
/// argument resolution, broadcasting, the gate checks and user-gate
/// inlining. A failing call leaves its message in Error.
class Lowering {
public:
  bool declareQreg(std::string_view Name, uint32_t Size) {
    if (!Qregs.try_emplace(Name, Qreg{NumQubits, Size}).second)
      return fail("duplicate qreg '" + std::string(Name) + "'");
    NumQubits += Size;
    return true;
  }

  const GateDef *findGate(std::string_view Name) const {
    auto It = UserGates.find(Name);
    return It == UserGates.end() ? nullptr : It->second;
  }

  void defineGate(const GateDef &Def) { UserGates[Def.Name] = &Def; }

  bool checkParam(const std::optional<double> &Value, std::string_view Name,
                  unsigned Line) {
    if (!Value)
      return fail(formatString("line %u: cannot evaluate parameter of '%s'",
                               Line, std::string(Name).c_str()));
    if (!std::isfinite(*Value))
      return fail(formatString("line %u: parameter of '%s' is not finite",
                               Line, std::string(Name).c_str()));
    return true;
  }

  /// Resolves a register reference outside any gate body.
  bool resolve(std::string_view Reg, bool HasIndex, uint32_t Index,
               Operand &Out) {
    auto It = Qregs.find(Reg);
    if (It == Qregs.end())
      return fail("unknown quantum register '" + std::string(Reg) + "'");
    const Qreg &R = It->second;
    if (!HasIndex) {
      Out = {static_cast<int32_t>(R.Base), R.Size};
      return true;
    }
    if (Index >= R.Size)
      return fail(formatString("index %u out of range for register %s[%u]",
                               Index, std::string(Reg).c_str(), R.Size));
    Out = {static_cast<int32_t>(R.Base + Index), 1};
    return true;
  }

  /// Folds one resolved argument of a call into its broadcast \p Width.
  bool addOperand(const Operand &Op, size_t &Width, std::string_view Name,
                  unsigned Line) {
    if (Op.Count == 0)
      return fail(formatString("line %u: empty register operand in '%s'",
                               Line, std::string(Name).c_str()));
    if (Op.Count > 1) {
      if (Width != 1 && Width != Op.Count)
        return fail(formatString("line %u: mismatched broadcast widths in '%s'",
                                 Line, std::string(Name).c_str()));
      Width = Op.Count;
    }
    return true;
  }

  /// Emits a call whose parameters are evaluated and whose arguments are
  /// resolved, once per broadcast element.
  bool emit(std::string_view Name, unsigned Line, const double *Params,
            size_t NumParams, const Operand *Ops, size_t NumOps, size_t Width,
            unsigned Depth) {
    const BuiltinGate *Builtin = findBuiltin(Name);
    uint64_t Each = 1;
    if (!Builtin)
      if (const GateDef *Def = findGate(Name))
        Each += expansion(*Def, Depth + 1);
    if (Lowered + Width * Each > MaxImportGates)
      return fail(formatString("line %u: '%s' lowers to more than %llu gates",
                               Line, std::string(Name).c_str(),
                               static_cast<unsigned long long>(
                                   MaxImportGates)));
    for (size_t B = 0; B < Width; ++B) {
      bool Ok = Builtin ? emitBuiltin(*Builtin, Name, Line, Params, NumParams,
                                      Ops, NumOps, B)
                        : inlineUserGate(Name, Line, Params, NumParams, Ops,
                                         NumOps, B, Depth);
      if (!Ok)
        return false;
    }
    return true;
  }

  /// Lowers a call from the AST: a top-level call of a parsed Program
  /// (no formals bound), or a statement of a user gate body.
  bool lowerCall(const GateCall &Call, const FormalQubits &Formals,
                 const FormalParams &ParamValues, unsigned Depth) {
    if (Depth > 64)
      return fail("user gate expansion too deep (recursive definition?)");
    std::vector<double> Params;
    Params.reserve(Call.Params.size());
    for (const auto &E : Call.Params) {
      std::optional<double> V = E->evaluate(ParamValues);
      if (!checkParam(V, Call.Name, Call.Line))
        return false;
      Params.push_back(*V);
    }
    std::vector<Operand> Ops;
    Ops.reserve(Call.Args.size());
    size_t Width = 1;
    for (const Argument &Arg : Call.Args) {
      Operand Op;
      // Inside a body, bare identifiers are formals.
      if (!Formals.empty() && !Arg.Index) {
        auto It = Formals.find(Arg.Reg);
        if (It == Formals.end())
          return fail("unknown formal qubit '" + Arg.Reg + "' in gate '" +
                      Call.Name + "'");
        Op.First = It->second;
      } else if (!resolve(Arg.Reg, Arg.Index.has_value(),
                          Arg.Index.value_or(0), Op)) {
        return false;
      }
      if (!addOperand(Op, Width, Call.Name, Call.Line))
        return false;
      Ops.push_back(Op);
    }
    return emit(Call.Name, Call.Line, Params.data(), Params.size(),
                Ops.data(), Ops.size(), Width, Depth);
  }

  /// Lowers `measure Src -> ...`, or one argument of a barrier.
  bool lowerEach(GateKind Kind, std::string_view Reg, bool HasIndex,
                 uint32_t Index) {
    Operand Op;
    if (!resolve(Reg, HasIndex, Index, Op))
      return false;
    if ((Lowered += Op.Count) > MaxImportGates)
      return fail(formatString("circuit lowers to more than %llu gates",
                               static_cast<unsigned long long>(
                                   MaxImportGates)));
    for (uint32_t I = 0; I < Op.Count; ++I)
      Gates.push_back(Gate(Kind, Op.First + static_cast<int32_t>(I)));
    return true;
  }

  std::vector<Gate> Gates;
  uint32_t NumQubits = 0;
  std::string Error;

private:
  struct Qreg {
    uint32_t Base;
    uint32_t Size;
  };

  bool fail(std::string Message) {
    Error = std::move(Message);
    return false;
  }

  /// What one call of \p Def lowers to when its body is lowered at depth
  /// \p Depth: its gates plus the user-gate calls it inlines, saturating
  /// past MaxImportGates, memoized per definition. A callee that is
  /// unknown, recursive or past the depth limit counts as its call alone;
  /// inlining it fails, which ends the import.
  uint64_t expansion(const GateDef &Def, unsigned Depth) {
    if (Depth > 64)
      return 0;
    auto Memo = Expansion.find(&Def);
    if (Memo != Expansion.end())
      return Memo->second;
    Expansion[&Def] = 0; // In progress: a recursive call counts as one.
    uint64_t Total = 0;
    for (const GateCall &Inner : Def.Body) {
      uint64_t Each = 1;
      if (!findBuiltin(Inner.Name))
        if (const GateDef *Callee = findGate(Inner.Name))
          Each += expansion(*Callee, Depth + 1);
      Total = std::min(Total + Each, MaxImportGates + 1);
    }
    Expansion[&Def] = Total;
    return Total;
  }

  bool emitBuiltin(const BuiltinGate &Builtin, std::string_view Name,
                   unsigned Line, const double *Params, size_t NumParams,
                   const Operand *Ops, size_t NumOps, size_t B) {
    if (NumOps != Builtin.NumQubits)
      return fail(formatString("line %u: '%s' expects %u qubits, got %zu",
                               Line, std::string(Name).c_str(),
                               Builtin.NumQubits, NumOps));
    if (NumParams != Builtin.NumParams)
      return fail(formatString("line %u: '%s' expects %u parameters, got %zu",
                               Line, std::string(Name).c_str(),
                               Builtin.NumParams, NumParams));
    Gate G;
    G.Kind = Builtin.Kind;
    for (size_t I = 0; I < NumOps; ++I)
      G.Qubits[I] = Ops[I].at(B);
    for (size_t I = 0; I < NumParams; ++I)
      G.Params[I] = Params[I];
    for (size_t I = 0; I < NumOps; ++I)
      for (size_t J = I + 1; J < NumOps; ++J)
        if (G.Qubits[I] == G.Qubits[J])
          return fail(formatString("line %u: repeated qubit operand in '%s'",
                                   Line, std::string(Name).c_str()));
    Gates.push_back(G);
    ++Lowered;
    return true;
  }

  bool inlineUserGate(std::string_view Name, unsigned Line,
                      const double *Params, size_t NumParams,
                      const Operand *Ops, size_t NumOps, size_t B,
                      unsigned Depth) {
    const GateDef *Def = findGate(Name);
    if (!Def)
      return fail(formatString("line %u: unknown gate '%s'", Line,
                               std::string(Name).c_str()));
    if (NumOps != Def->QubitNames.size())
      return fail(formatString("line %u: '%s' expects %zu qubits, got %zu",
                               Line, Def->Name.c_str(),
                               Def->QubitNames.size(), NumOps));
    if (NumParams != Def->ParamNames.size())
      return fail(formatString("line %u: '%s' expects %zu parameters, got %zu",
                               Line, Def->Name.c_str(),
                               Def->ParamNames.size(), NumParams));
    ++Lowered;
    FormalQubits BodyQubits;
    for (size_t I = 0; I < NumOps; ++I)
      BodyQubits[Def->QubitNames[I]] = Ops[I].at(B);
    FormalParams BodyParams;
    for (size_t I = 0; I < NumParams; ++I)
      BodyParams[Def->ParamNames[I]] = Params[I];
    for (const GateCall &Inner : Def->Body)
      if (!lowerCall(Inner, BodyQubits, BodyParams, Depth + 1))
        return false;
    return true;
  }

  std::unordered_map<std::string_view, Qreg> Qregs;
  std::map<std::string, const GateDef *, std::less<>> UserGates;
  /// Gates and inlined user-gate calls so far, against MaxImportGates.
  uint64_t Lowered = 0;
  std::unordered_map<const GateDef *, uint64_t> Expansion;
};

ImportResult failure(std::string Message) {
  ImportResult Result;
  Result.Error = std::move(Message);
  return Result;
}

ImportResult tooLarge(uint64_t NumQubits, unsigned MaxQubits) {
  ImportResult Result =
      failure(formatString("circuit declares %llu qubits, more than %u",
                           static_cast<unsigned long long>(NumQubits),
                           MaxQubits));
  Result.TooLarge = true;
  Result.NumQubits = static_cast<unsigned>(NumQubits);
  return Result;
}

ImportResult success(Lowering &L, const std::string &Name) {
  ImportResult Result;
  Result.Circ.emplace(L.NumQubits, Name);
  Result.Circ->gatesMutable() = std::move(L.Gates);
  return Result;
}

/// importQasm's grammar sink: lowers each statement as soon as it parses.
/// Every callback returns false at the first failure of any kind, which
/// stops the parse.
class StreamingSink {
public:
  using Builder = ValueBuilder;

  explicit StreamingSink(unsigned MaxQubits) : MaxQubits(MaxQubits) {}

  void version(std::string_view) {}
  void include(std::string_view) {}

  bool reg(bool IsQuantum, std::string_view Name, uint32_t Size) {
    if (!IsQuantum)
      return true;
    return uint64_t(L.NumQubits) + Size <= MaxQubits &&
           L.declareQreg(Name, Size);
  }

  /// An opaque gate cannot be inlined, and a redefinition changes calls
  /// already lowered.
  bool gateDef(GateDef &&Def) {
    if (Def.IsOpaque || L.findGate(Def.Name))
      return false;
    L.defineGate(Defs.emplace_back(std::move(Def)));
    return true;
  }

  bool call(std::string_view Name, unsigned Line,
            std::vector<std::optional<double>> &Values,
            const std::vector<ArgRef> &Args) {
    Params.clear();
    for (const std::optional<double> &V : Values) {
      if (!L.checkParam(V, Name, Line))
        return false;
      Params.push_back(*V);
    }
    Ops.clear();
    size_t Width = 1;
    for (const ArgRef &A : Args) {
      Operand Op;
      if (!L.resolve(A.Reg, A.HasIndex, A.Index, Op) ||
          !L.addOperand(Op, Width, Name, Line))
        return false;
      Ops.push_back(Op);
    }
    return L.emit(Name, Line, Params.data(), Params.size(), Ops.data(),
                  Ops.size(), Width, 0);
  }

  bool measure(const ArgRef &Src, const ArgRef &) {
    return L.lowerEach(GateKind::Measure, Src.Reg, Src.HasIndex, Src.Index);
  }

  bool barrier(const std::vector<ArgRef> &Args) {
    for (const ArgRef &A : Args)
      if (!L.lowerEach(GateKind::Barrier, A.Reg, A.HasIndex, A.Index))
        return false;
    return true;
  }

  bool reset(const ArgRef &) { return true; }

  ImportResult finish(const std::string &Name) { return success(L, Name); }

private:
  Lowering L;
  std::deque<GateDef> Defs;
  std::vector<double> Params;
  std::vector<Operand> Ops;
  unsigned MaxQubits;
};

} // namespace

ImportResult qasm::importProgram(const Program &Prog, const std::string &Name,
                                 unsigned MaxQubits) {
  uint64_t NumQubits = 0;
  for (const Statement &Stmt : Prog.Statements)
    if (Stmt.StmtKind == Statement::Kind::Reg && Stmt.Reg.IsQuantum)
      NumQubits += Stmt.Reg.Size;
  if (NumQubits > std::min(MaxQubits, MaxImportQubits))
    return tooLarge(NumQubits, MaxQubits);

  // Pass 1: collect registers and user gate definitions.
  Lowering L;
  for (const Statement &Stmt : Prog.Statements) {
    if (Stmt.StmtKind == Statement::Kind::Reg && Stmt.Reg.IsQuantum &&
        !L.declareQreg(Stmt.Reg.Name, Stmt.Reg.Size))
      return failure(std::move(L.Error));
    if (Stmt.StmtKind == Statement::Kind::Gate) {
      if (Stmt.Gate.IsOpaque)
        return failure("opaque gate '" + Stmt.Gate.Name +
                       "' has no definition to inline");
      L.defineGate(Stmt.Gate);
    }
  }

  // Pass 2: lower statements in order. Reset is non-unitary and does not
  // affect routing, so it is dropped.
  for (const Statement &Stmt : Prog.Statements) {
    bool Ok = true;
    switch (Stmt.StmtKind) {
    case Statement::Kind::Call:
      Ok = L.lowerCall(Stmt.Call, {}, {}, 0);
      break;
    case Statement::Kind::Measure: {
      const Argument &Src = Stmt.Measure.Src;
      Ok = L.lowerEach(GateKind::Measure, Src.Reg, Src.Index.has_value(),
                       Src.Index.value_or(0));
      break;
    }
    case Statement::Kind::Barrier:
      for (const Argument &Arg : Stmt.Barrier.Args)
        if (Ok)
          Ok = L.lowerEach(GateKind::Barrier, Arg.Reg, Arg.Index.has_value(),
                           Arg.Index.value_or(0));
      break;
    default:
      break;
    }
    if (!Ok)
      return failure(std::move(L.Error));
  }
  return success(L, Name);
}

ImportResult qasm::importQasm(std::string_view Source, const std::string &Name,
                              unsigned MaxQubits) {
  StreamingSink Sink(MaxQubits);
  Grammar<StreamingSink> G(Source, Sink);
  if (G.run())
    return Sink.finish(Name);
  if (!G.error().empty())
    return failure(G.error());
  // The sink stopped: the two-pass importer decides, since a later syntax
  // error, declaration or redefinition can change the answer.
  ParseResult Parsed = parseQasm(Source);
  if (!Parsed.succeeded())
    return failure(std::move(Parsed.Error));
  return importProgram(*Parsed.Prog, Name, MaxQubits);
}
