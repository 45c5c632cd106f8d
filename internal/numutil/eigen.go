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
	values, vectors = make([]float64, n), make([]float64, n*n)
	if err := JacobiEigenInto(a, n, values, vectors); err != nil {
		return nil, nil, err
	}
	return values, vectors, nil
}

// maxJacobiN is the largest order JacobiEigenInto decomposes in stack
// memory.
const maxJacobiN = 20

// JacobiEigenInto is JacobiEigen writing the eigenvalues to values (n
// entries) and the eigenvectors to vectors (n·n); up to maxJacobiN it
// allocates nothing.
func JacobiEigenInto(a []float64, n int, values, vectors []float64) error {
	if len(a) != n*n || len(values) != n || len(vectors) != n*n {
		return fmt.Errorf("numutil: JacobiEigen: matrix length %d, %d values, %d vector entries for n=%d", len(a), len(values), len(vectors), n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := math.Abs(a[i*n+j] - a[j*n+i]); d > 1e-9*(1+math.Abs(a[i*n+j])) {
				return fmt.Errorf("numutil: JacobiEigen: matrix not symmetric at (%d,%d): %g vs %g", i, j, a[i*n+j], a[j*n+i])
			}
		}
	}

	// Work on a copy; accumulate rotations in v.
	var mBuf, vBuf [maxJacobiN * maxJacobiN]float64
	var m, v []float64
	if n <= maxJacobiN {
		m, v = mBuf[:n*n], vBuf[:n*n]
	} else {
		m, v = make([]float64, n*n), make([]float64, n*n)
	}
	copy(m, a)
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
			sortEigen(m, v, n, values, vectors)
			return nil
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
	return fmt.Errorf("JacobiEigen after %d sweeps: %w", 64, ErrNoConvergence)
}

// sortEigen extracts the diagonal of m as eigenvalues, ascending, into
// values and the matching eigenvector columns of v into vectors.
func sortEigen(m, v []float64, n int, values, vectors []float64) {
	var orderBuf [maxJacobiN]int
	order := orderBuf[:0]
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	// Insertion sort: n ≤ 20, keep it stable.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && m[order[j-1]*(n+1)] > m[order[j]*(n+1)]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	for j, oj := range order {
		values[j] = m[oj*(n+1)]
		for i := 0; i < n; i++ {
			vectors[i*n+j] = v[i*n+oj]
		}
	}
}
