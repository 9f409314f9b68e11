// Generated by Steno (iterator fusion + nested loop generation).
// Query entry point: golden_where_kept_branch
#include "steno/Rt.h"

#include <cstdint>

extern "C" void golden_where_kept_branch(const steno::rt::Captures *Caps_,
                     steno::rt::Columns *Out_) {
  (void)Caps_;
  (void)Out_;
  const double *src0_d = Caps_->Sources[0].D;
  const std::int64_t *src0_i = Caps_->Sources[0].I;
  const std::int64_t src0_count = Caps_->Sources[0].Count;
  const std::int64_t src0_dim = Caps_->Sources[0].Dim;
  (void)src0_d; (void)src0_i; (void)src0_count; (void)src0_dim;
  std::int64_t agg5 = INT64_C(0);
  for (std::int64_t i0 = 0; i0 < src0_count; ++i0) {
    std::int64_t elem3 = src0_i[i0];
    (void)elem3;
    if (!((elem3 != INT64_C(0)))) {
      continue;
    }
    std::int64_t elem4 = steno::rt::ckdiv(INT64_C(100), elem3);
    (void)elem4;
    agg5 = steno::rt::add(agg5, elem4);
  }
  steno::rt::appendRow(Out_, agg5);
}
