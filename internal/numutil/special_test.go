package numutil

import (
	"math"
	"math/rand"
	"testing"
)

func TestGammaIncPKnownValues(t *testing.T) {
	// P(1, x) = 1 − e^{−x} (exponential CDF).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := GammaIncP(1, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(1,%g) = %g, want %g", x, got, want)
		}
	}
	// P(1/2, x) = erf(√x).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := GammaIncP(0.5, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(0.5,%g) = %g, want %g", x, got, want)
		}
	}
}

func TestGammaIncPEdgeCases(t *testing.T) {
	if got := GammaIncP(2, 0); got != 0 {
		t.Errorf("P(2,0) = %g, want 0", got)
	}
	if got := GammaIncP(2, -1); got != 0 {
		t.Errorf("P(2,-1) = %g, want 0", got)
	}
	if !math.IsNaN(GammaIncP(-1, 1)) {
		t.Error("P(-1,1) should be NaN")
	}
	if !math.IsNaN(GammaIncP(math.NaN(), 1)) {
		t.Error("P(NaN,1) should be NaN")
	}
}

func TestGammaIncPMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		a := rng.Float64()*20 + 0.05
		prev := -1.0
		for x := 0.0; x < 40; x += 0.5 {
			p := GammaIncP(a, x)
			if p < prev-1e-13 {
				t.Fatalf("P(%g,·) not monotone at x=%g: %g < %g", a, x, p, prev)
			}
			prev = p
		}
	}
}

func TestGammaQuantileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		shape := rng.Float64()*10 + 0.05
		rate := rng.Float64()*5 + 0.1
		p := rng.Float64()*0.98 + 0.01
		x := GammaQuantile(p, shape, rate)
		back := GammaIncP(shape, rate*x)
		if math.Abs(back-p) > 1e-9 {
			t.Fatalf("quantile round trip: shape=%g rate=%g p=%g → x=%g → P=%g", shape, rate, p, x, back)
		}
	}
}

func TestGammaQuantileEdges(t *testing.T) {
	if got := GammaQuantile(0, 2, 1); got != 0 {
		t.Errorf("quantile(0) = %g, want 0", got)
	}
	if got := GammaQuantile(1, 2, 1); !math.IsInf(got, 1) {
		t.Errorf("quantile(1) = %g, want +Inf", got)
	}
}

func TestGammaQuantileExponential(t *testing.T) {
	// Gamma(1, λ) is Exponential(λ): quantile(p) = −ln(1−p)/λ.
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		want := -math.Log(1-p) / 2.0
		if got := GammaQuantile(p, 1, 2); math.Abs(got-want) > 1e-9*want {
			t.Errorf("quantile(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.3, 0.5, 0.8, 0.999} {
		zp := normalQuantile(p)
		zq := normalQuantile(1 - p)
		if math.Abs(zp+zq) > 1e-8 {
			t.Errorf("normalQuantile not antisymmetric at p=%g: %g vs %g", p, zp, zq)
		}
	}
	if math.Abs(normalQuantile(0.5)) > 1e-12 {
		t.Error("normalQuantile(0.5) != 0")
	}
	// Φ⁻¹(0.975) ≈ 1.959964
	if z := normalQuantile(0.975); math.Abs(z-1.959964) > 1e-5 {
		t.Errorf("normalQuantile(0.975) = %g", z)
	}
}
