// Triangular matrix helpers used by the factorization drivers.
#pragma once

#include "la/matrix.h"

namespace bst::la {

/// Zeroes the strict lower (keep_upper) or strict upper (otherwise) triangle.
void keep_triangle(View a, bool keep_upper);

/// True when max |A(i,j)| for i > j (strictly below diagonal) <= tol.
bool is_upper_triangular(CView a, double tol);

}  // namespace bst::la
