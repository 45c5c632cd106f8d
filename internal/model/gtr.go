// Package model implements the statistical models of sequence evolution the
// likelihood kernels evaluate: the General Time Reversible (GTR) nucleotide
// substitution model diagonalized for fast P(t) computation, the discrete-Γ
// model of among-site rate heterogeneity (Yang 1994), and the PSR (per-site
// rate, historically CAT) model that the paper's experiments contrast with Γ.
package model

import (
	"fmt"
	"math"

	"repro/internal/msa"
	"repro/internal/numutil"
)

// NumRates is the number of GTR exchangeability parameters for DNA
// (upper triangle of a symmetric 4×4 matrix: AC, AG, AT, CG, CT, GT).
// The last rate (GT) is fixed to 1 as the reference, leaving 5 free.
const NumRates = 6

// Rate bounds used during optimization, matching the RAxML family.
const (
	MinRate = 1e-4
	MaxRate = 1e4
)

// Eigen is the spectral decomposition of a normalized GTR rate matrix Q:
// Q = U diag(Vals) U⁻¹, with the largest eigenvalue exactly zero (the
// stationary mode). It is everything the likelihood kernels need to build
// P(t) = U e^{Λt} U⁻¹ and the sum-table branch-length derivatives.
type Eigen struct {
	// Vals are the eigenvalues in ascending order; Vals[3] == 0.
	Vals [msa.NumStates]float64
	// U[x*4+k] is component x of right eigenvector k.
	U [msa.NumStates * msa.NumStates]float64
	// UInv[k*4+y] is the inverse eigenvector matrix.
	UInv [msa.NumStates * msa.NumStates]float64
	// Stat[x*4+y] = U[x*4+3]·UInv[12+y] is the stationary mode's term of
	// P(t)[x][y]: e^{Vals[3]·t} is exactly 1, so the term is the same at
	// every t.
	Stat [msa.NumStates * msa.NumStates]float64
	// UT, UInvT and StatT are the transposes of U, UInv and Stat, for the
	// kernels that take a matrix column by column (the transposed P
	// assembly, the sum-table fills): UT[k*4+x] = U[x*4+k], and so on.
	UT, UInvT, StatT [msa.NumStates * msa.NumStates]float64
}

// NewEigen builds and diagonalizes the GTR rate matrix defined by the
// exchangeability rates and stationary frequencies. The matrix is
// normalized so the expected substitution rate at stationarity is 1, which
// makes branch lengths measure expected substitutions per site.
//
// The reversibility of GTR is exploited for numerical robustness: with
// D = diag(π), the similarity transform B = D^{1/2} Q D^{-1/2} is symmetric,
// so the decomposition reduces to a symmetric (Jacobi) eigenproblem with an
// orthonormal eigenbasis; U = D^{-1/2}V and U⁻¹ = VᵀD^{1/2} follow.
func NewEigen(rates [NumRates]float64, freqs [msa.NumStates]float64) (*Eigen, error) {
	e := new(Eigen)
	if err := e.Decompose(rates, freqs); err != nil {
		return nil, err
	}
	return e, nil
}

// Decompose is NewEigen into e, allocating nothing; on an error e is
// left as it was.
func (e *Eigen) Decompose(rates [NumRates]float64, freqs [msa.NumStates]float64) error {
	for i, r := range rates {
		if !(r > 0) || math.IsInf(r, 0) {
			return fmt.Errorf("model: rate %d = %g must be positive and finite", i, r)
		}
	}
	fsum := 0.0
	for i, f := range freqs {
		if !(f > 0) {
			return fmt.Errorf("model: frequency %d = %g must be positive", i, f)
		}
		fsum += f
	}
	if math.Abs(fsum-1) > 1e-8 {
		return fmt.Errorf("model: frequencies sum to %g, want 1", fsum)
	}

	const n = msa.NumStates
	// Assemble Q: Q[i][j] = s(i,j) π_j for i≠j.
	var q [n * n]float64
	ri := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			q[i*n+j] = rates[ri] * freqs[j]
			q[j*n+i] = rates[ri] * freqs[i]
			ri++
		}
	}
	// Diagonal and normalization: E[rate] = Σ_i π_i Σ_{j≠i} Q_ij = 1.
	meanRate := 0.0
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				row += q[i*n+j]
			}
		}
		q[i*n+i] = -row
		meanRate += freqs[i] * row
	}
	if meanRate <= 0 {
		return fmt.Errorf("model: degenerate rate matrix (mean rate %g)", meanRate)
	}
	for i := range q {
		q[i] /= meanRate
	}

	// Symmetrize: B = D^{1/2} Q D^{-1/2}.
	var sqrtF, invSqrtF [n]float64
	for i, f := range freqs {
		sqrtF[i] = math.Sqrt(f)
		invSqrtF[i] = 1 / sqrtF[i]
	}
	var b [n * n]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i*n+j] = sqrtF[i] * q[i*n+j] * invSqrtF[j]
		}
	}
	// Exact symmetry can be off in the last ulp; average.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := 0.5 * (b[i*n+j] + b[j*n+i])
			b[i*n+j], b[j*n+i] = m, m
		}
	}
	var vals [n]float64
	var vecs [n * n]float64
	if err := numutil.JacobiEigenInto(b[:], n, vals[:], vecs[:]); err != nil {
		return fmt.Errorf("model: diagonalizing GTR: %w", err)
	}

	*e = Eigen{Vals: vals}
	// The stationary eigenvalue is 0 up to rounding; pin it exactly so
	// P(t) rows sum to 1 for arbitrary large t.
	e.Vals[n-1] = 0
	for x := 0; x < n; x++ {
		for k := 0; k < n; k++ {
			e.U[x*n+k] = invSqrtF[x] * vecs[x*n+k]
			e.UInv[k*n+x] = vecs[x*n+k] * sqrtF[x]
		}
	}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			e.Stat[x*n+y] = e.U[x*n+n-1] * e.UInv[(n-1)*n+y]
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			e.UT[j*n+i], e.UInvT[j*n+i], e.StatT[j*n+i] = e.U[i*n+j], e.UInv[i*n+j], e.Stat[i*n+j]
		}
	}
	return nil
}

// ProbMatrix fills p with the transition probability matrix P(t·rate) =
// U e^{Λ t rate} U⁻¹. Entries are clamped to [0,1] to shed the ±1e-16
// excursions of the spectral reconstruction. t·rate must be finite.
//
// It is the one P-matrix expression: the three exponentials of ExpArgs's
// arguments, by math.Exp, assembled by Assemble. A caller that builds
// many matrices at once (the likelihood kernels) takes the same
// exponentials four at a time and assembles the same way, so every
// P matrix has these bits whoever builds it.
func (e *Eigen) ProbMatrix(t, rate float64, p *[msa.NumStates * msa.NumStates]float64) {
	e.probMatrix(t, rate, p, false)
}

// ProbMatrixT fills p with the transpose of P(t·rate): p[y·4+x] is the
// double ProbMatrix writes to p[x·4+y]. Row y of p is column y of P, the
// layout the PSR kernels multiply a vector by (likelihood/lanes.go).
func (e *Eigen) ProbMatrixT(t, rate float64, p *[msa.NumStates * msa.NumStates]float64) {
	e.probMatrix(t, rate, p, true)
}

func (e *Eigen) probMatrix(t, rate float64, p *[msa.NumStates * msa.NumStates]float64, transpose bool) {
	var ex [3]float64
	e.ExpArgs(t, rate, &ex)
	for k := range ex {
		ex[k] = math.Exp(ex[k])
	}
	e.Assemble(&ex, p, transpose)
}

// ExpArgs writes the arguments of P(t·rate)'s three exponentials:
// a[k] = Vals[k]·t·rate, associated left to right. The stationary mode
// needs none: e^{Vals[3]·t·rate} is exactly 1.
func (e *Eigen) ExpArgs(t, rate float64, a *[3]float64) {
	a[0] = e.Vals[0] * t * rate
	a[1] = e.Vals[1] * t * rate
	a[2] = e.Vals[2] * t * rate
}

// Assemble fills p with P(t·rate) from its exponentials ex[k] =
// e^{Vals[k]·t·rate} (ExpArgs), or with its transpose if transpose.
// Entry (x, y) is the sum Σ_k (U[x·4+k]·ex[k])·UInv[k·4+y] taken left to
// right from 0.0, the stationary mode's term being the precomputed
// Stat[x·4+y]; the 0.0 the sum starts from turns a −0 sum into +0, as
// the rolled loop did. Entries are clamped to [0,1].
func (e *Eigen) Assemble(ex *[3]float64, p *[msa.NumStates * msa.NumStates]float64, transpose bool) {
	const n = msa.NumStates
	for x := 0; x < n; x++ {
		a0, a1, a2 := e.U[x*n]*ex[0], e.U[x*n+1]*ex[1], e.U[x*n+2]*ex[2]
		for y := 0; y < n; y++ {
			v := 0.0 + a0*e.UInv[y] + a1*e.UInv[n+y] + a2*e.UInv[2*n+y] + e.Stat[x*n+y]
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			if transpose {
				p[y*n+x] = v
			} else {
				p[x*n+y] = v
			}
		}
	}
}

// DefaultRates returns the GTR exchangeabilities of the Jukes–Cantor
// special case (all equal), the standard optimization starting point.
func DefaultRates() [NumRates]float64 {
	return [NumRates]float64{1, 1, 1, 1, 1, 1}
}

// UniformFreqs returns equal base frequencies.
func UniformFreqs() [msa.NumStates]float64 {
	return [msa.NumStates]float64{0.25, 0.25, 0.25, 0.25}
}
