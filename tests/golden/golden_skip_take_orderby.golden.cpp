// Generated by Steno (iterator fusion + nested loop generation).
// Query entry point: golden_skip_take_orderby
#include "steno/Rt.h"
#include "steno/RtSinks.h"

#include <cstdint>

extern "C" void golden_skip_take_orderby(const steno::rt::Captures *Caps_,
                     steno::rt::Columns *Out_) {
  (void)Caps_;
  (void)Out_;
  const double *src0_d = Caps_->Sources[0].D;
  const std::int64_t *src0_i = Caps_->Sources[0].I;
  const std::int64_t src0_count = Caps_->Sources[0].Count;
  const std::int64_t src0_dim = Caps_->Sources[0].Dim;
  (void)src0_d; (void)src0_i; (void)src0_count; (void)src0_dim;
  std::int64_t skip4 = INT64_C(0);
  std::int64_t take5 = INT64_C(0);
  steno::rt::Buf<double> sink6;
  for (std::int64_t i0 = 0; i0 < src0_count; ++i0) {
    double elem3 = src0_d[i0];
    (void)elem3;
    if ((skip4 < INT64_C(2))) {
      skip4 = steno::rt::add(skip4, INT64_C(1));
      continue;
    }
    if ((take5 >= INT64_C(8))) {
      break;
    }
    take5 = steno::rt::add(take5, INT64_C(1));
    sink6.push_back(elem3);
  }
  steno::rt::sortByKey(sink6, [&](const double &A_) {
    (void)A_;
    return steno::rt::orderKey(-(A_));
  });
  steno::rt::adoptColumn(Out_, sink6);
}
