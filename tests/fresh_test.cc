#include <gtest/gtest.h>

#include "core/fresh.h"

namespace moqo {
namespace {

TEST(FreshPairRegistryTest, MarksPairsOnce) {
  FreshPairRegistry reg;
  EXPECT_TRUE(reg.IsFresh(1, 2));
  EXPECT_TRUE(reg.Mark(1, 2));
  EXPECT_FALSE(reg.IsFresh(1, 2));
  EXPECT_FALSE(reg.Mark(1, 2));
  EXPECT_EQ(reg.size(), 1u);
}

TEST(FreshPairRegistryTest, OrderedPairsAreDistinct) {
  // (a, b) and (b, a) are different keys: the registry keys ordered
  // pairs, and the optimizer asks with each unordered sub-plan pair in
  // its one canonical orientation (see fresh.h).
  FreshPairRegistry reg;
  EXPECT_TRUE(reg.Mark(1, 2));
  EXPECT_TRUE(reg.IsFresh(2, 1));
  EXPECT_TRUE(reg.Mark(2, 1));
  EXPECT_EQ(reg.size(), 2u);
}

TEST(FreshPairRegistryTest, LargeIdsDoNotCollide) {
  FreshPairRegistry reg;
  EXPECT_TRUE(reg.Mark(0xFFFFFFFFu, 0));
  EXPECT_TRUE(reg.IsFresh(0, 0xFFFFFFFFu));
  EXPECT_TRUE(reg.Mark(0xFFFFFFFEu, 1));
  EXPECT_FALSE(reg.IsFresh(0xFFFFFFFFu, 0));
  EXPECT_EQ(reg.size(), 2u);
}

}  // namespace
}  // namespace moqo
