// Generated by Steno (iterator fusion + nested loop generation).
// Query entry point: golden_cse_hoist
#include "steno/Rt.h"

#include <cstdint>

extern "C" void golden_cse_hoist(const steno::rt::Captures *Caps_,
                     steno::rt::Columns *Out_) {
  (void)Caps_;
  (void)Out_;
  const double *src0_d = Caps_->Sources[0].D;
  const std::int64_t *src0_i = Caps_->Sources[0].I;
  const std::int64_t src0_count = Caps_->Sources[0].Count;
  const std::int64_t src0_dim = Caps_->Sources[0].Dim;
  (void)src0_d; (void)src0_i; (void)src0_count; (void)src0_dim;
  double agg6 = 0.0;
  for (std::int64_t i0 = 0; i0 < src0_count; ++i0) {
    double elem3 = src0_d[i0];
    (void)elem3;
    double cse5 = (elem3 * elem3);
    double elem4 = (cse5 + (cse5 * 0.5));
    (void)elem4;
    agg6 = (agg6 + elem4);
  }
  steno::rt::appendRow(Out_, agg6);
}
