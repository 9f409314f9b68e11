//===- analysis/Analysis.cpp - Pass driver ---------------------*- C++ -*-===//

#include "analysis/Analysis.h"
#include "obs/Metrics.h"
#include "support/Error.h"
#include "support/StringUtil.h"

using namespace steno;
using namespace steno::analysis;

const char *analysis::aggClassName(AggClass C) {
  switch (C) {
  case AggClass::NoCombiner:
    return "no-combiner";
  case AggClass::NonAssociative:
    return "non-associative";
  case AggClass::Trusted:
    return "trusted";
  case AggClass::Associative:
    return "associative";
  case AggClass::AssociativeCommutative:
    return "associative-commutative";
  }
  stenoUnreachable("bad AggClass");
}

std::string SafetyCertificate::str() const {
  std::string Out;
  Out += Pure ? "pure" : "impure";
  Out += OrderSensitive ? ", order-sensitive" : ", order-insensitive";
  if (!AggClasses.empty()) {
    Out += ", combiners:";
    for (AggClass C : AggClasses) {
      Out += " ";
      Out += aggClassName(C);
    }
  }
  if (FpReassociation)
    Out += ", fp-reassociating";
  Out += parallelSafe() ? " -> parallel-safe" : " -> sequential-only";
  return Out;
}

AnalysisResult analysis::analyzeChain(const quil::Chain &C) {
  static obs::Counter &Chains = obs::counter("analysis.chains");
  static obs::Counter &Certified =
      obs::counter("analysis.certified.parallel");
  static obs::Counter &Rejected = obs::counter("analysis.rejected");

  AnalysisResult R;
  runTypeCheck(C, R.Diags);
  runEffectAnalysis(C, R.Diags, R.Cert);
  runConstRange(C, R.Diags);

  Chains.inc();
  if (R.Cert.parallelSafe())
    Certified.inc();
  if (R.Diags.hasErrors())
    Rejected.inc();
  return R;
}
