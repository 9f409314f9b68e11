// Generated by Steno (iterator fusion + nested loop generation).
// Query entry point: golden_nested_ret_pop
#include "steno/Rt.h"

#include <cstdint>

extern "C" void golden_nested_ret_pop(const steno::rt::Captures *Caps_,
                     steno::rt::Columns *Out_) {
  (void)Caps_;
  (void)Out_;
  const double *src0_d = Caps_->Sources[0].D;
  const std::int64_t *src0_i = Caps_->Sources[0].I;
  const std::int64_t src0_count = Caps_->Sources[0].Count;
  const std::int64_t src0_dim = Caps_->Sources[0].Dim;
  (void)src0_d; (void)src0_i; (void)src0_count; (void)src0_dim;
  const double *src1_d = Caps_->Sources[1].D;
  const std::int64_t *src1_i = Caps_->Sources[1].I;
  const std::int64_t src1_count = Caps_->Sources[1].Count;
  const std::int64_t src1_dim = Caps_->Sources[1].Dim;
  (void)src1_d; (void)src1_i; (void)src1_count; (void)src1_dim;
  double agg10 = 0.0;
  for (std::int64_t i0 = 0; i0 < src0_count; ++i0) {
    double elem3 = src0_d[i0];
    (void)elem3;
    for (std::int64_t i4 = 0; i4 < src1_count; ++i4) {
      double elem7 = src1_d[i4];
      (void)elem7;
      double elem8 = (elem3 + elem7);
      (void)elem8;
      bool guard9 = (elem8 > 1.0);
      agg10 = steno::rt::addIf(agg10, guard9, elem8);
    }
  }
  steno::rt::appendRow(Out_, agg10);
}
