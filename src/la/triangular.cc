#include "la/triangular.h"

#include <cmath>

namespace bst::la {

void keep_triangle(View a, bool keep_upper) {
  for (index_t j = 0; j < a.cols(); ++j) {
    if (keep_upper) {
      for (index_t i = j + 1; i < a.rows(); ++i) a(i, j) = 0.0;
    } else {
      for (index_t i = 0; i < j && i < a.rows(); ++i) a(i, j) = 0.0;
    }
  }
}

bool is_upper_triangular(CView a, double tol) {
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = j + 1; i < a.rows(); ++i)
      if (std::fabs(a(i, j)) > tol) return false;
  return true;
}

}  // namespace bst::la
