// Generated by Steno (iterator fusion + nested loop generation).
// Query entry point: golden_group_by_aggregate
#include "steno/Rt.h"
#include "steno/RtSinks.h"

#include <cstdint>

extern "C" void golden_group_by_aggregate(const steno::rt::Captures *Caps_,
                     steno::rt::Columns *Out_) {
  (void)Caps_;
  (void)Out_;
  const double *src0_d = Caps_->Sources[0].D;
  const std::int64_t *src0_i = Caps_->Sources[0].I;
  const std::int64_t src0_count = Caps_->Sources[0].Count;
  const std::int64_t src0_dim = Caps_->Sources[0].Dim;
  (void)src0_d; (void)src0_i; (void)src0_count; (void)src0_dim;
  steno::rt::GroupAggSink<std::int64_t> sink4;
  for (std::int64_t i0 = 0; i0 < src0_count; ++i0) {
    std::int64_t elem3 = src0_i[i0];
    (void)elem3;
    {
      auto &slot5 = sink4.slot((elem3 % INT64_C(10)), INT64_C(0));
      slot5 = steno::rt::add(slot5, elem3);
    }
  }
  const std::int64_t n7 = sink4.size();
  for (std::int64_t i6 = 0; i6 < n7; ++i6) {
    std::int64_t key8 = sink4.keyAt(i6);
    std::int64_t acc9 = sink4.accAt(i6);
    (void)key8; (void)acc9;
    steno::rt::Pair<std::int64_t, std::int64_t> elem10 = steno::rt::Pair<std::int64_t, std::int64_t>{key8, acc9};
    (void)elem10;
    steno::rt::appendRow(Out_, elem10);
  }
}
