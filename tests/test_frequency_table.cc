// Tests for FrequencyTable (mach/frequency_table.h).
#include "mach/frequency_table.h"

#include <gtest/gtest.h>

#include <limits>

#include "mach/machine_config.h"
#include "simkit/units.h"

namespace fvsst::mach {
namespace {

using units::MHz;

FrequencyTable small_table() {
  return FrequencyTable({
      {500 * MHz, 1.0, 35.0},
      {250 * MHz, 0.8, 9.0},
      {1000 * MHz, 1.3, 140.0},
      {750 * MHz, 1.15, 75.0},
  });
}

TEST(FrequencyTable, SortsAscending) {
  const FrequencyTable t = small_table();
  ASSERT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t[0].hz, 250 * MHz);
  EXPECT_DOUBLE_EQ(t[3].hz, 1000 * MHz);
  EXPECT_DOUBLE_EQ(t.min_hz(), 250 * MHz);
  EXPECT_DOUBLE_EQ(t.max_hz(), 1000 * MHz);
}

TEST(FrequencyTable, RejectsEmptyDuplicatesAndNonPositive) {
  EXPECT_THROW(FrequencyTable(std::vector<OperatingPoint>{}),
               std::invalid_argument);
  EXPECT_THROW(FrequencyTable({{1e9, 1.0, 10.0}, {1e9, 1.1, 11.0}}),
               std::invalid_argument);
  EXPECT_THROW(FrequencyTable({{0.0, 1.0, 10.0}}), std::invalid_argument);
  EXPECT_THROW(FrequencyTable({{1e9, -1.0, 10.0}}), std::invalid_argument);
  EXPECT_THROW(FrequencyTable({{1e9, 1.0, 0.0}}), std::invalid_argument);
}

TEST(FrequencyTable, IntegerWattsBound) {
  EXPECT_EQ(small_table().integer_watts_bound(), 140.0);
  const FrequencyTable copy = p630().freq_table;  // copies carry the bound
  EXPECT_EQ(copy.integer_watts_bound(), 140.0);
  EXPECT_EQ(copy.capped_at(600 * MHz).integer_watts_bound(), 48.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(FrequencyTable({{1e9, 1.0, 10.5}, {2e9, 1.1, 12.0}})
                .integer_watts_bound(),
            inf);
  EXPECT_EQ(FrequencyTable({{1e9, 1.0, 0x1p52}}).integer_watts_bound(), inf);
  EXPECT_EQ(derated(p630(), 800 * MHz, 0.913).freq_table.integer_watts_bound(),
            inf);
}

TEST(FrequencyTable, IndexAndContains) {
  const FrequencyTable t = small_table();
  EXPECT_TRUE(t.contains(750 * MHz));
  EXPECT_FALSE(t.contains(600 * MHz));
  EXPECT_EQ(*t.index_of(250 * MHz), 0u);
  EXPECT_EQ(*t.index_of(1000 * MHz), 3u);
  EXPECT_FALSE(t.index_of(123.0).has_value());
}

TEST(FrequencyTable, VoltageAndPowerLookup) {
  const FrequencyTable t = small_table();
  EXPECT_DOUBLE_EQ(t.min_voltage(750 * MHz), 1.15);
  EXPECT_DOUBLE_EQ(t.power(500 * MHz), 35.0);
  EXPECT_THROW(t.min_voltage(600 * MHz), std::out_of_range);
  EXPECT_THROW(t.power(600 * MHz), std::out_of_range);
}

TEST(FrequencyTable, NextLower) {
  const FrequencyTable t = small_table();
  EXPECT_DOUBLE_EQ(t.next_lower(1000 * MHz)->hz, 750 * MHz);
  EXPECT_DOUBLE_EQ(t.next_lower(600 * MHz)->hz, 500 * MHz);  // between points
  EXPECT_FALSE(t.next_lower(250 * MHz).has_value());
}

TEST(FrequencyTable, NextHigher) {
  const FrequencyTable t = small_table();
  EXPECT_DOUBLE_EQ(t.next_higher(250 * MHz)->hz, 500 * MHz);
  EXPECT_DOUBLE_EQ(t.next_higher(600 * MHz)->hz, 750 * MHz);
  EXPECT_FALSE(t.next_higher(1000 * MHz).has_value());
}

TEST(FrequencyTable, HighestUnderPower) {
  const FrequencyTable t = small_table();
  EXPECT_DOUBLE_EQ(t.highest_under_power(140.0)->hz, 1000 * MHz);
  EXPECT_DOUBLE_EQ(t.highest_under_power(100.0)->hz, 750 * MHz);
  EXPECT_DOUBLE_EQ(t.highest_under_power(9.0)->hz, 250 * MHz);
  EXPECT_FALSE(t.highest_under_power(8.9).has_value());
}

TEST(FrequencyTable, EqualShareHz) {
  const FrequencyTable t = small_table();
  EXPECT_DOUBLE_EQ(t.equal_share_hz(4 * 140.0, 4), 1000 * MHz);
  EXPECT_DOUBLE_EQ(t.equal_share_hz(400.0, 4), 750 * MHz);
  // An exact share admits its point, arithmetic ulps notwithstanding.
  EXPECT_DOUBLE_EQ(t.equal_share_hz(3 * 35.0, 3), 500 * MHz);
  // The floor: even f_min's 9 W exceeds an 8 W share, so every processor
  // runs at f_min and the group overshoots its budget.
  EXPECT_DOUBLE_EQ(t.equal_share_hz(32.0, 4), 250 * MHz);
  EXPECT_DOUBLE_EQ(t.equal_share_hz(0.0, 4), 250 * MHz);
  // No processors counts as one.
  EXPECT_DOUBLE_EQ(t.equal_share_hz(100.0, 0), 750 * MHz);
}

TEST(FrequencyTable, HighestUnderPowerAdmitsExactArithmeticBoundary) {
  // Power caps are usually derived arithmetically (budget / n, budget minus
  // the other grants) and can land an ulp below the point they intend to
  // admit.  kPowerSlackW must absorb that ulp: a cap that names a point
  // exactly selects it, while a cap meaningfully below still rejects it.
  const FrequencyTable t({
      {250 * MHz, 0.8, 0.1},
      {500 * MHz, 1.0, 0.2},
      {750 * MHz, 1.15, 0.3},
  });
  const double cap = 1.0 - 0.9;  // 0.0999...98, one ulp under 0.1
  ASSERT_LT(cap, 0.1);
  ASSERT_TRUE(t.highest_under_power(cap).has_value());
  EXPECT_DOUBLE_EQ(t.highest_under_power(cap)->hz, 250 * MHz);
  // Drift in the other direction must not promote past the boundary
  // point, and a genuinely lower cap still finds nothing.
  const double drift_up = 0.1 + 0.1 + 0.1;  // 0.300...04, just over 0.3
  EXPECT_DOUBLE_EQ(t.highest_under_power(drift_up)->hz, 750 * MHz);
  EXPECT_FALSE(t.highest_under_power(0.1 - 1e-6).has_value());
}

TEST(FrequencyTable, HighestUnderFrequency) {
  const FrequencyTable t = small_table();
  EXPECT_DOUBLE_EQ(t.highest_under_frequency(800 * MHz)->hz, 750 * MHz);
  EXPECT_DOUBLE_EQ(t.highest_under_frequency(250 * MHz)->hz, 250 * MHz);
  EXPECT_FALSE(t.highest_under_frequency(200 * MHz).has_value());
}

TEST(FrequencyTable, CeilPoint) {
  const FrequencyTable t = small_table();
  EXPECT_DOUBLE_EQ(t.ceil_point(600 * MHz).hz, 750 * MHz);
  EXPECT_DOUBLE_EQ(t.ceil_point(750 * MHz).hz, 750 * MHz);
  EXPECT_DOUBLE_EQ(t.ceil_point(0.0).hz, 250 * MHz);
  // Above the top: clamps to max.
  EXPECT_DOUBLE_EQ(t.ceil_point(2000 * MHz).hz, 1000 * MHz);
}

TEST(FrequencyTable, CappedAt) {
  const FrequencyTable t = small_table();
  const FrequencyTable capped = t.capped_at(750 * MHz);
  EXPECT_EQ(capped.size(), 3u);
  EXPECT_DOUBLE_EQ(capped.max_hz(), 750 * MHz);
  EXPECT_THROW(t.capped_at(100 * MHz), std::invalid_argument);
}

// ---- Property sweep over the full P630 table -----------------------------

class P630TableTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(P630TableTest, PowerAndVoltageMonotoneInFrequency) {
  const FrequencyTable t = p630_frequency_table();
  const std::size_t i = GetParam();
  if (i + 1 < t.size()) {
    EXPECT_LT(t[i].hz, t[i + 1].hz);
    EXPECT_LT(t[i].watts, t[i + 1].watts);
    EXPECT_LT(t[i].volts, t[i + 1].volts);
  }
}

TEST_P(P630TableTest, NextLowerInverts) {
  const FrequencyTable t = p630_frequency_table();
  const std::size_t i = GetParam();
  const auto lower = t.next_lower(t[i].hz);
  if (i == 0) {
    EXPECT_FALSE(lower.has_value());
  } else {
    ASSERT_TRUE(lower.has_value());
    EXPECT_DOUBLE_EQ(lower->hz, t[i - 1].hz);
  }
}

TEST_P(P630TableTest, HighestUnderOwnPowerIsSelf) {
  const FrequencyTable t = p630_frequency_table();
  const std::size_t i = GetParam();
  const auto point = t.highest_under_power(t[i].watts);
  ASSERT_TRUE(point.has_value());
  EXPECT_DOUBLE_EQ(point->hz, t[i].hz);
}

INSTANTIATE_TEST_SUITE_P(AllPoints, P630TableTest,
                         ::testing::Range<std::size_t>(0, 16));

}  // namespace
}  // namespace fvsst::mach
