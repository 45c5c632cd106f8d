package numutil

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative routine exceeds its
// iteration budget without meeting its tolerance.
var ErrNoConvergence = errors.New("numutil: iteration did not converge")

// JacobiEigen computes all eigenvalues and eigenvectors of the symmetric
// n×n matrix a (row-major, length n*n) using the cyclic Jacobi rotation
// method. The input matrix is not modified.
//
// On return, values holds the eigenvalues in ascending order and vectors
// holds the corresponding eigenvectors as columns of a row-major n×n matrix
// (vectors[i*n+j] is component i of eigenvector j). The decomposition
// satisfies a = V diag(values) Vᵀ.
//
// Jacobi is chosen over QR because substitution-model matrices are tiny
// (4×4 for DNA, 20×20 for proteins) and Jacobi delivers small, fully
// deterministic, highly accurate eigensystems for symmetric input.
func JacobiEigen(a []float64, n int) (values []float64, vectors []float64, err error) {
	if len(a) != n*n {
		return nil, nil, fmt.Errorf("numutil: JacobiEigen: matrix length %d != n*n with n=%d", len(a), n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := math.Abs(a[i*n+j] - a[j*n+i]); d > 1e-9*(1+math.Abs(a[i*n+j])) {
				return nil, nil, fmt.Errorf("numutil: JacobiEigen: matrix not symmetric at (%d,%d): %g vs %g", i, j, a[i*n+j], a[j*n+i])
			}
		}
	}

	// Work on a copy; accumulate rotations in v.
	m := make([]float64, n*n)
	copy(m, a)
	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i*n+j] * m[i*n+j]
			}
		}
		if off < 1e-28 {
			return sortEigen(m, v, n)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := m[p*n+p]
				aqq := m[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e300 {
					t = 1 / (2 * theta)
				} else {
					t = 1 / (math.Abs(theta) + math.Sqrt(1+theta*theta))
					if theta < 0 {
						t = -t
					}
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Apply rotation G(p,q,θ) on both sides: m = Gᵀ m G.
				for k := 0; k < n; k++ {
					mkp := m[k*n+p]
					mkq := m[k*n+q]
					m[k*n+p] = c*mkp - s*mkq
					m[k*n+q] = s*mkp + c*mkq
				}
				for k := 0; k < n; k++ {
					mpk := m[p*n+k]
					mqk := m[q*n+k]
					m[p*n+k] = c*mpk - s*mqk
					m[q*n+k] = s*mpk + c*mqk
				}
				// Accumulate eigenvectors: v = v G.
				for k := 0; k < n; k++ {
					vkp := v[k*n+p]
					vkq := v[k*n+q]
					v[k*n+p] = c*vkp - s*vkq
					v[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}
	return nil, nil, fmt.Errorf("JacobiEigen after %d sweeps: %w", 64, ErrNoConvergence)
}

// sortEigen extracts the diagonal of m as eigenvalues and reorders the
// eigenvector columns of v so eigenvalues ascend.
func sortEigen(m, v []float64, n int) ([]float64, []float64, error) {
	values := make([]float64, n)
	for i := range values {
		values[i] = m[i*n+i]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Insertion sort: n ≤ 20, keep it allocation-free and stable.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && values[order[j-1]] > values[order[j]]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	sv := make([]float64, n)
	vec := make([]float64, n*n)
	for j, oj := range order {
		sv[j] = values[oj]
		for i := 0; i < n; i++ {
			vec[i*n+j] = v[i*n+oj]
		}
	}
	return sv, vec, nil
}
