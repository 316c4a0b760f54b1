// Tests for the Matrix / view layer.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "la/matrix.h"
#include "la/norms.h"

namespace bst::la {
namespace {

TEST(Matrix, InitializerListIsRowMajor) {
  Mat a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(a.rows(), 2);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(a(1, 2), 6.0);
}

TEST(Matrix, ColumnMajorStorageLayout) {
  Mat a(3, 2);
  a(0, 0) = 1;
  a(1, 0) = 2;
  a(2, 0) = 3;
  a(0, 1) = 4;
  EXPECT_DOUBLE_EQ(a.data()[0], 1);
  EXPECT_DOUBLE_EQ(a.data()[1], 2);
  EXPECT_DOUBLE_EQ(a.data()[2], 3);
  EXPECT_DOUBLE_EQ(a.data()[3], 4);
}

TEST(Matrix, BlockViewSharesStorage) {
  Mat a(4, 4);
  View b = a.block(1, 1, 2, 2);
  b(0, 0) = 9.0;
  b(1, 1) = 7.0;
  EXPECT_DOUBLE_EQ(a(1, 1), 9.0);
  EXPECT_DOUBLE_EQ(a(2, 2), 7.0);
  EXPECT_EQ(b.ld(), 4);
}

TEST(Matrix, NestedBlockViews) {
  Mat a(6, 6);
  for (index_t j = 0; j < 6; ++j)
    for (index_t i = 0; i < 6; ++i) a(i, j) = static_cast<double>(10 * i + j);
  View outer = a.block(1, 1, 4, 4);
  View inner = outer.block(1, 1, 2, 2);
  EXPECT_DOUBLE_EQ(inner(0, 0), a(2, 2));
  EXPECT_DOUBLE_EQ(inner(1, 1), a(3, 3));
}

TEST(Matrix, CopyAndSetZero) {
  Mat a{{1, 2}, {3, 4}};
  Mat b(2, 2);
  copy(a.view(), b.view());
  EXPECT_DOUBLE_EQ(max_diff(a.view(), b.view()), 0.0);
  set_zero(b.view());
  EXPECT_DOUBLE_EQ(max_abs(b.view()), 0.0);
}

// A new Mat is all zero even when the allocator recycles memory an earlier
// Mat of the same size dirtied: 4 KB comes from the heap free lists, 1 MB
// and 64 MB sit on either side of glibc's dynamic mmap threshold.
TEST(Matrix, ZeroAfterRecycledDirtyMemory) {
  for (const std::size_t bytes : {std::size_t{4} << 10, std::size_t{1} << 20,
                                  std::size_t{64} << 20}) {
    const index_t rows = 64;
    const auto cols = static_cast<index_t>(bytes / sizeof(double)) / rows;
    for (int round = 0; round < 3; ++round) {
      {
        Mat dirty(rows, cols);
        std::memset(dirty.data(), 0xA5, bytes);
      }
      const Mat fresh(rows, cols);
      const auto* words = reinterpret_cast<const unsigned char*>(fresh.data());
      std::size_t nonzero = 0;
      for (std::size_t i = 0; i < bytes; ++i) nonzero += (words[i] != 0);
      ASSERT_EQ(nonzero, 0u) << bytes << " bytes, round " << round;
    }
  }
}

TEST(Matrix, CopyAndMoveKeepContents) {
  Mat a(5, 3);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 5; ++i) a(i, j) = static_cast<double>(10 * i + j);
  const auto same_as_a = [&](const Mat& m) {
    if (m.rows() != 5 || m.cols() != 3) return false;
    for (index_t j = 0; j < 3; ++j)
      for (index_t i = 0; i < 5; ++i)
        if (m(i, j) != static_cast<double>(10 * i + j)) return false;
    return true;
  };
  Mat copied(a);
  Mat assigned(2, 2);
  assigned = a;
  EXPECT_TRUE(same_as_a(copied));
  EXPECT_TRUE(same_as_a(assigned));
  EXPECT_NE(copied.data(), a.data());
  a(0, 0) = -1.0;  // copies own their storage
  EXPECT_TRUE(same_as_a(copied));
  a(0, 0) = 0.0;

  const double* storage = copied.data();
  Mat moved(std::move(copied));
  EXPECT_TRUE(same_as_a(moved));
  EXPECT_EQ(moved.data(), storage);  // a move hands the storage over
  Mat move_assigned(4, 4);
  move_assigned = std::move(moved);
  EXPECT_TRUE(same_as_a(move_assigned));
  EXPECT_EQ(move_assigned.data(), storage);

  Mat empty;
  Mat empty_copy(empty);
  EXPECT_EQ(empty_copy.rows(), 0);
  EXPECT_EQ(empty_copy.cols(), 0);
}

TEST(Matrix, IdentityAndTranspose) {
  Mat i3 = identity(3);
  EXPECT_DOUBLE_EQ(i3(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
  Mat a{{1, 2, 3}, {4, 5, 6}};
  Mat at = transpose(a.view());
  EXPECT_EQ(at.rows(), 3);
  EXPECT_EQ(at.cols(), 2);
  EXPECT_DOUBLE_EQ(at(2, 1), 6.0);
}

TEST(Norms, FrobeniusOneInfMax) {
  Mat a{{3, -4}, {0, 0}};
  EXPECT_DOUBLE_EQ(frobenius(a.view()), 5.0);
  EXPECT_DOUBLE_EQ(max_abs(a.view()), 4.0);
  EXPECT_DOUBLE_EQ(norm1(a.view()), 4.0);      // max column abs-sum
  EXPECT_DOUBLE_EQ(norm_inf(a.view()), 7.0);   // max row abs-sum
}

TEST(Norms, EmptyAndZero) {
  Mat z(3, 3);
  EXPECT_DOUBLE_EQ(frobenius(z.view()), 0.0);
  EXPECT_DOUBLE_EQ(norm_inf(z.view()), 0.0);
}

}  // namespace
}  // namespace bst::la
