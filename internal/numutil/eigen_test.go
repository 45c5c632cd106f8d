package numutil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestJacobiEigenDiagonal(t *testing.T) {
	a := []float64{
		3, 0, 0,
		0, -1, 0,
		0, 0, 2,
	}
	vals, vecs, err := JacobiEigen(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-1, 2, 3}
	for i, w := range want {
		if !almostEqual(vals[i], w, 1e-12) {
			t.Errorf("eigenvalue %d = %g, want %g", i, vals[i], w)
		}
	}
	// Eigenvectors of a diagonal matrix are (signed) unit vectors.
	for j := 0; j < 3; j++ {
		nonzero := 0
		for i := 0; i < 3; i++ {
			if math.Abs(vecs[i*3+j]) > 1e-10 {
				nonzero++
			}
		}
		if nonzero != 1 {
			t.Errorf("eigenvector %d has %d nonzero components, want 1", j, nonzero)
		}
	}
}

func TestJacobiEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	vals, _, err := JacobiEigen([]float64{2, 1, 1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(vals[0], 1, 1e-12) || !almostEqual(vals[1], 3, 1e-12) {
		t.Errorf("eigenvalues = %v, want [1 3]", vals)
	}
}

func TestJacobiEigenRejectsAsymmetric(t *testing.T) {
	_, _, err := JacobiEigen([]float64{1, 2, 3, 4}, 2)
	if err == nil {
		t.Fatal("expected error for asymmetric input")
	}
}

func TestJacobiEigenRejectsBadLength(t *testing.T) {
	_, _, err := JacobiEigen([]float64{1, 2, 3}, 2)
	if err == nil {
		t.Fatal("expected error for wrong slice length")
	}
}

// reconstruct rebuilds V diag(vals) Vᵀ.
func reconstruct(vals, vecs []float64, n int) []float64 {
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		d[i*n+i] = vals[i]
	}
	return matMul(matMul(vecs, d, n), transpose(vecs, n), n)
}

func TestJacobiEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(7)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64() * 10
				a[i*n+j] = v
				a[j*n+i] = v
			}
		}
		vals, vecs, err := JacobiEigen(a, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				t.Fatalf("eigenvalues not ascending: %v", vals)
			}
		}
		back := reconstruct(vals, vecs, n)
		for i := range a {
			if !almostEqual(back[i], a[i], 1e-9) {
				t.Fatalf("trial %d: reconstruction mismatch at %d: %g vs %g", trial, i, back[i], a[i])
			}
		}
		// Orthonormality: VᵀV = I.
		vtv := matMul(transpose(vecs, n), vecs, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(vtv[i*n+j]-want) > 1e-10 {
					t.Fatalf("VᵀV not identity at (%d,%d): %g", i, j, vtv[i*n+j])
				}
			}
		}
	}
}

func TestJacobiEigenTraceInvariant(t *testing.T) {
	// Property: sum of eigenvalues equals the trace.
	f := func(x0, x1, x2, x3, x4, x5 float64) bool {
		a := []float64{
			x0, x3, x4,
			x3, x1, x5,
			x4, x5, x2,
		}
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.Abs(a[i]) > 1e6 {
				return true // skip pathological draws
			}
		}
		vals, _, err := JacobiEigen(a, 3)
		if err != nil {
			return false
		}
		return almostEqual(vals[0]+vals[1]+vals[2], x0+x1+x2, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatMulIdentity(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	id := []float64{1, 0, 0, 1}
	got := matMul(a, id, 2)
	for i := range a {
		if got[i] != a[i] {
			t.Fatalf("A·I != A: %v", got)
		}
	}
	got = matMul(id, a, 2)
	for i := range a {
		if got[i] != a[i] {
			t.Fatalf("I·A != A: %v", got)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		m := []float64{a, b, c, d}
		tt := transpose(transpose(m, 2), 2)
		for i := range m {
			if tt[i] != m[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// matMul computes the product c = a·b of row-major n×n matrices.
func matMul(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	return c
}

// transpose returns the transpose of the row-major n×n matrix a.
func transpose(a []float64, n int) []float64 {
	t := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t[j*n+i] = a[i*n+j]
		}
	}
	return t
}
