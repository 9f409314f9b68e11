//===- analysis/Analysis.cpp - Pass driver ---------------------*- C++ -*-===//

#include "analysis/Analysis.h"
#include "obs/Metrics.h"
#include "support/Env.h"
#include "support/Error.h"
#include "support/StringUtil.h"

#include <cstdlib>
#include <cstring>

using namespace steno;
using namespace steno::analysis;

Mode analysis::modeFromEnv() {
  const char *Env = std::getenv("STENO_ANALYZE");
  if (!support::parseFlag(Env, true))
    return Mode::Off;
  return Env && std::strcmp(Env, "warn") == 0 ? Mode::Warn : Mode::Strict;
}

const char *analysis::modeName(Mode M) {
  switch (M) {
  case Mode::Off:
    return "off";
  case Mode::Warn:
    return "warn";
  case Mode::Strict:
    return "strict";
  }
  stenoUnreachable("bad Mode");
}

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
