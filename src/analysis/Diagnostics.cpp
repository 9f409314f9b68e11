//===- analysis/Diagnostics.cpp -------------------------------*- C++ -*-===//

#include "analysis/Diagnostics.h"
#include "obs/Metrics.h"
#include "support/Error.h"

using namespace steno;
using namespace steno::analysis;

const char *analysis::diagCodeName(DiagCode Code) {
  switch (Code) {
  case DiagCode::BadArity:
    return "ST1001";
  case DiagCode::ParamTypeMismatch:
    return "ST1002";
  case DiagCode::ResultTypeMismatch:
    return "ST1003";
  case DiagCode::PredicateNotBool:
    return "ST1004";
  case DiagCode::CountNotInt64:
    return "ST1005";
  case DiagCode::SeedTypeMismatch:
    return "ST1006";
  case DiagCode::CaptureSlotOutOfBounds:
    return "ST1007";
  case DiagCode::SourceSlotOutOfBounds:
    return "ST1008";
  case DiagCode::UnboundParam:
    return "ST1009";
  case DiagCode::BadCombiner:
    return "ST1010";
  case DiagCode::ElemTypeMismatch:
    return "ST1011";
  case DiagCode::KeyNotInt64:
    return "ST1012";
  case DiagCode::DivByZero:
    return "ST2001";
  case DiagCode::OrderSensitive:
    return "ST2002";
  case DiagCode::NoCombiner:
    return "ST2003";
  case DiagCode::FpFoldReassociation:
    return "ST2004";
  case DiagCode::NonAssociativeCombiner:
    return "ST2005";
  case DiagCode::UnverifiedCombiner:
    return "ST2006";
  case DiagCode::NegativeCount:
    return "ST3001";
  case DiagCode::AlwaysFalsePred:
    return "ST3002";
  case DiagCode::AlwaysTruePred:
    return "ST3003";
  case DiagCode::TakeZero:
    return "ST3004";
  case DiagCode::DeadOperator:
    return "ST3005";
  case DiagCode::RewritePredDropped:
    return "ST4001";
  case DiagCode::RewriteEmptyCollapse:
    return "ST4002";
  case DiagCode::RewriteDeadOpRemoved:
    return "ST4003";
  case DiagCode::RewriteTakeSkipFolded:
    return "ST4004";
  case DiagCode::RewritePredReordered:
    return "ST4005";
  case DiagCode::RewriteTrapElided:
    return "ST4006";
  }
  stenoUnreachable("bad DiagCode");
}

const char *analysis::exprRoleName(ExprRole Role) {
  switch (Role) {
  case ExprRole::None:
    return "";
  case ExprRole::Fn:
    return "Fn";
  case ExprRole::Fn2:
    return "Fn2";
  case ExprRole::Fn3:
    return "Fn3";
  case ExprRole::Combine:
    return "Combine";
  case ExprRole::StopWhen:
    return "StopWhen";
  case ExprRole::Seed:
    return "Seed";
  case ExprRole::DenseKeys:
    return "DenseKeys";
  case ExprRole::SrcStart:
    return "Src.Start";
  case ExprRole::SrcCount:
    return "Src.Count";
  case ExprRole::SrcVec:
    return "Src.Vec";
  }
  stenoUnreachable("bad ExprRole");
}

std::string DiagLoc::str() const {
  std::string Out = "op #";
  if (OpPath.empty())
    Out += "?";
  for (std::size_t I = 0; I != OpPath.size(); ++I) {
    if (I)
      Out += ".";
    Out += std::to_string(OpPath[I]);
  }
  if (Role != ExprRole::None) {
    Out += " ";
    Out += exprRoleName(Role);
    if (!ExprPath.empty()) {
      Out += "@[";
      for (std::size_t I = 0; I != ExprPath.size(); ++I) {
        if (I)
          Out += ",";
        Out += std::to_string(ExprPath[I]);
      }
      Out += "]";
    }
  }
  return Out;
}

static const char *severityName(Severity Sev) {
  switch (Sev) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  stenoUnreachable("bad Severity");
}

std::string Diagnostic::render() const {
  std::string Out = severityName(Sev);
  Out += " [";
  Out += diagCodeName(Code);
  Out += "] ";
  Out += Loc.str();
  Out += ": ";
  Out += Message;
  return Out;
}

void DiagnosticBag::report(DiagCode Code, Severity Sev, DiagLoc Loc,
                           std::string Message) {
  obs::counter(std::string("analysis.diag.") + diagCodeName(Code)).inc();
  if (Sev == Severity::Error)
    ++Errors;
  Diags.push_back(
      Diagnostic{Code, Sev, std::move(Loc), std::move(Message)});
}

bool DiagnosticBag::has(DiagCode Code) const {
  return find(Code) != nullptr;
}

const Diagnostic *DiagnosticBag::find(DiagCode Code) const {
  for (const Diagnostic &D : Diags)
    if (D.Code == Code)
      return &D;
  return nullptr;
}

std::string DiagnosticBag::render(Severity MinSev) const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    if (D.Sev < MinSev)
      continue;
    Out += "  " + D.render() + "\n";
  }
  return Out;
}
