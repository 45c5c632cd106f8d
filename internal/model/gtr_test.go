package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/msa"
)

func randomFreqs(rng *rand.Rand) [msa.NumStates]float64 {
	var f [msa.NumStates]float64
	sum := 0.0
	for i := range f {
		f[i] = 0.05 + rng.Float64()
		sum += f[i]
	}
	for i := range f {
		f[i] /= sum
	}
	return f
}

func randomRates(rng *rand.Rand) [NumRates]float64 {
	var r [NumRates]float64
	for i := range r {
		r[i] = 0.1 + 3*rng.Float64()
	}
	r[NumRates-1] = 1
	return r
}

func TestNewEigenJukesCantor(t *testing.T) {
	e, err := NewEigen(DefaultRates(), UniformFreqs())
	if err != nil {
		t.Fatal(err)
	}
	// JC eigenvalues: 0 and -4/3 (threefold).
	if math.Abs(e.Vals[3]) > 1e-12 {
		t.Errorf("largest eigenvalue = %g, want 0", e.Vals[3])
	}
	for k := 0; k < 3; k++ {
		if math.Abs(e.Vals[k]+4.0/3.0) > 1e-10 {
			t.Errorf("eigenvalue %d = %g, want -4/3", k, e.Vals[k])
		}
	}
	// JC transition probability: P(same) = 1/4 + 3/4·e^{-4t/3}.
	var p [16]float64
	for _, tt := range []float64{0.01, 0.1, 0.5, 2} {
		e.ProbMatrix(tt, 1, &p)
		want := 0.25 + 0.75*math.Exp(-4*tt/3)
		for x := 0; x < 4; x++ {
			if math.Abs(p[x*4+x]-want) > 1e-12 {
				t.Errorf("t=%g: P[%d][%d] = %g, want %g", tt, x, x, p[x*4+x], want)
			}
		}
	}
}

func TestProbMatrixRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		e, err := NewEigen(randomRates(rng), randomFreqs(rng))
		if err != nil {
			t.Fatal(err)
		}
		var p [16]float64
		for _, tt := range []float64{0, 1e-6, 0.05, 0.7, 3, 50} {
			e.ProbMatrix(tt, 1, &p)
			for x := 0; x < 4; x++ {
				row := 0.0
				for y := 0; y < 4; y++ {
					if p[x*4+y] < 0 || p[x*4+y] > 1 {
						t.Fatalf("P entry out of [0,1]: %g", p[x*4+y])
					}
					row += p[x*4+y]
				}
				if math.Abs(row-1) > 1e-9 {
					t.Fatalf("trial %d t=%g: row %d sums to %.15g", trial, tt, x, row)
				}
			}
		}
	}
}

func TestProbMatrixIdentityAtZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e, err := NewEigen(randomRates(rng), randomFreqs(rng))
	if err != nil {
		t.Fatal(err)
	}
	var p [16]float64
	e.ProbMatrix(0, 1, &p)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			want := 0.0
			if x == y {
				want = 1
			}
			if math.Abs(p[x*4+y]-want) > 1e-10 {
				t.Fatalf("P(0)[%d][%d] = %g", x, y, p[x*4+y])
			}
		}
	}
}

func TestProbMatrixStationaryLimit(t *testing.T) {
	// As t→∞, every row approaches the stationary frequencies.
	rng := rand.New(rand.NewSource(4))
	freqs := randomFreqs(rng)
	e, err := NewEigen(randomRates(rng), freqs)
	if err != nil {
		t.Fatal(err)
	}
	var p [16]float64
	e.ProbMatrix(500, 1, &p)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			if math.Abs(p[x*4+y]-freqs[y]) > 1e-8 {
				t.Fatalf("P(∞)[%d][%d] = %g, want π=%g", x, y, p[x*4+y], freqs[y])
			}
		}
	}
}

func TestProbMatrixDetailedBalance(t *testing.T) {
	// Time reversibility: π_x P_xy(t) = π_y P_yx(t).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		freqs := randomFreqs(rng)
		e, err := NewEigen(randomRates(rng), freqs)
		if err != nil {
			t.Fatal(err)
		}
		var p [16]float64
		e.ProbMatrix(0.3, 1.7, &p)
		for x := 0; x < 4; x++ {
			for y := 0; y < 4; y++ {
				lhs := freqs[x] * p[x*4+y]
				rhs := freqs[y] * p[y*4+x]
				if math.Abs(lhs-rhs) > 1e-12 {
					t.Fatalf("detailed balance violated: %g vs %g", lhs, rhs)
				}
			}
		}
	}
}

func TestProbMatrixChapmanKolmogorov(t *testing.T) {
	// P(s+t) = P(s)·P(t).
	rng := rand.New(rand.NewSource(6))
	e, err := NewEigen(randomRates(rng), randomFreqs(rng))
	if err != nil {
		t.Fatal(err)
	}
	var ps, pt, pst [16]float64
	s, tt := 0.17, 0.43
	e.ProbMatrix(s, 1, &ps)
	e.ProbMatrix(tt, 1, &pt)
	e.ProbMatrix(s+tt, 1, &pst)
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			v := 0.0
			for k := 0; k < 4; k++ {
				v += ps[x*4+k] * pt[k*4+y]
			}
			if math.Abs(v-pst[x*4+y]) > 1e-10 {
				t.Fatalf("Chapman–Kolmogorov violated at (%d,%d): %g vs %g", x, y, v, pst[x*4+y])
			}
		}
	}
}

func TestMeanRateNormalization(t *testing.T) {
	// Expected rate at stationarity must be 1: Σ_x π_x Σ_{y≠x} Q_xy = 1.
	// Check via the derivative of P at 0: Q ≈ (P(h)−I)/h.
	rng := rand.New(rand.NewSource(7))
	freqs := randomFreqs(rng)
	e, err := NewEigen(randomRates(rng), freqs)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-7
	var p [16]float64
	e.ProbMatrix(h, 1, &p)
	rate := 0.0
	for x := 0; x < 4; x++ {
		off := 0.0
		for y := 0; y < 4; y++ {
			if y != x {
				off += p[x*4+y]
			}
		}
		rate += freqs[x] * off / h
	}
	if math.Abs(rate-1) > 1e-4 {
		t.Fatalf("mean substitution rate = %g, want 1", rate)
	}
}

func TestNewEigenRejectsBadInput(t *testing.T) {
	if _, err := NewEigen([NumRates]float64{1, 1, 1, 1, 1, 0}, UniformFreqs()); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewEigen(DefaultRates(), [msa.NumStates]float64{0.5, 0.5, 0, 0}); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := NewEigen(DefaultRates(), [msa.NumStates]float64{0.5, 0.5, 0.5, 0.5}); err == nil {
		t.Error("non-normalized frequencies accepted")
	}
	if _, err := NewEigen([NumRates]float64{math.Inf(1), 1, 1, 1, 1, 1}, UniformFreqs()); err == nil {
		t.Error("infinite rate accepted")
	}
}

// rolledProbMatrix is ProbMatrix as the four-term loop it was written as
// before the stationary term was hoisted: four exponentials, each entry
// summed from 0.0 over k in order. It is the reference of
// TestProbMatrixSameBitsAsRolledLoop.
func rolledProbMatrix(e *Eigen, t, rate float64, p *[16]float64) {
	var ex [4]float64
	for k := 0; k < 4; k++ {
		ex[k] = math.Exp(e.Vals[k] * t * rate)
	}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			v := 0.0
			for k := 0; k < 4; k++ {
				v += e.U[x*4+k] * ex[k] * e.UInv[k*4+y]
			}
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			p[x*4+y] = v
		}
	}
}

// TestProbMatrixSameBitsAsRolledLoop: ProbMatrix, with its precomputed
// stationary term and three exponentials, writes the bits of the rolled
// four-exponential loop for 200 000 random (eigensystem, t, rate) draws —
// t from 0 and −0 through 1e-8 to 500, rates over five decades — and
// ProbMatrixT writes the same doubles transposed.
func TestProbMatrixSameBitsAsRolledLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for sys := 0; sys < 2000; sys++ {
		e, err := NewEigen(randomRates(rng), randomFreqs(rng))
		if err != nil {
			t.Fatal(err)
		}
		for draw := 0; draw < 100; draw++ {
			tt := math.Exp(rng.Float64()*24 - 18)
			switch draw {
			case 0:
				tt = 0
			case 1:
				tt = math.Copysign(0, -1)
			case 2:
				tt = 500
			}
			rate := math.Exp(rng.Float64()*11.5 - 6.9)
			var got, gotT, want [16]float64
			e.ProbMatrix(tt, rate, &got)
			e.ProbMatrixT(tt, rate, &gotT)
			rolledProbMatrix(e, tt, rate, &want)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("system %d, t=%g, rate=%g: entry %d is %x, the rolled loop gives %x", sys, tt, rate, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
				if tr := i%4*4 + i/4; math.Float64bits(gotT[tr]) != math.Float64bits(want[i]) {
					t.Fatalf("system %d, t=%g, rate=%g: ProbMatrixT entry %d is %x, the rolled loop's entry %d %x", sys, tt, rate, tr, math.Float64bits(gotT[tr]), i, math.Float64bits(want[i]))
				}
			}
		}
	}
}

// BenchmarkProbMatrix times one P(t·rate) against the rolled loop it
// replaced: a diagnostic of the kernel staging cost, not evidence.
func BenchmarkProbMatrix(b *testing.B) {
	e, err := NewEigen(randomRates(rand.New(rand.NewSource(5))), randomFreqs(rand.New(rand.NewSource(6))))
	if err != nil {
		b.Fatal(err)
	}
	var p [16]float64
	for _, c := range []struct {
		name string
		f    func(float64)
	}{
		{"hoisted", func(t float64) { e.ProbMatrix(t, 1.3, &p) }},
		{"rolled", func(t float64) { rolledProbMatrix(e, t, 1.3, &p) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.f(0.01 + float64(i&1023)*1e-4)
			}
		})
	}
}
