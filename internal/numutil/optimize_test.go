package numutil

import (
	"math"
	"testing"
	"testing/quick"
)

// brent is the plain loop over BrentStepper: minimize f on [lo, hi] from
// the golden-section point, to relative x tolerance tol, in at most
// maxIter steps.
func brent(f func(float64) float64, lo, hi, tol float64, maxIter int) (xmin, fmin float64) {
	x := lo + goldenRatio*(hi-lo)
	var s BrentStepper
	s.Start(lo, hi, x, f(x), tol)
	for iter := 0; iter < maxIter; iter++ {
		u, ok := s.Next()
		if !ok {
			break
		}
		s.Report(f(u))
	}
	return s.Best()
}

func TestBrentQuadratic(t *testing.T) {
	x, fx := brent(func(x float64) float64 { return (x - 3) * (x - 3) }, -10, 10, 1e-10, 200)
	if math.Abs(x-3) > 1e-7 {
		t.Errorf("xmin = %g, want 3", x)
	}
	if fx > 1e-12 {
		t.Errorf("fmin = %g, want ~0", fx)
	}
}

func TestBrentCosine(t *testing.T) {
	// min of cos on [2, 5] is at π.
	x, _ := brent(math.Cos, 2, 5, 1e-12, 200)
	if math.Abs(x-math.Pi) > 1e-8 {
		t.Errorf("xmin = %g, want π", x)
	}
}

func TestBrentBoundaryMinimum(t *testing.T) {
	// Monotone increasing on the interval: minimum at the left edge.
	x, _ := brent(func(x float64) float64 { return x }, 1, 4, 1e-10, 200)
	if x > 1.001 {
		t.Errorf("xmin = %g, want ~1 (left boundary)", x)
	}
}

func TestBrentFindsShiftedQuadraticMinimum(t *testing.T) {
	f := func(shift float64) bool {
		s := math.Mod(math.Abs(shift), 8) - 4 // keep the optimum inside [-5,5]
		x, _ := brent(func(x float64) float64 { return (x - s) * (x - s) }, -5, 5, 1e-10, 300)
		return math.Abs(x-s) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// closureBrent is the closure-form Brent this package shipped before the
// stepper existed, kept verbatim as the stepper's oracle: every abscissa
// the loop over BrentStepper (brent above) evaluates, and what it
// returns, must be the bits this loop produces.
func closureBrent(f func(float64) float64, lo, hi, tol float64, maxIter int) (xmin, fmin float64) {
	const goldenRatio = 0.3819660112501051
	const tiny = 1e-12
	a, b := lo, hi
	x := a + goldenRatio*(b-a)
	w, v := x, x
	fx := f(x)
	fw, fv := fx, fx
	var d, e float64
	for iter := 0; iter < maxIter; iter++ {
		xm := 0.5 * (a + b)
		tol1 := tol*math.Abs(x) + tiny
		tol2 := 2 * tol1
		if math.Abs(x-xm) <= tol2-0.5*(b-a) {
			return x, fx
		}
		useGolden := true
		if math.Abs(e) > tol1 {
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etmp := e
			e = d
			if math.Abs(p) < math.Abs(0.5*q*etmp) && p > q*(a-x) && p < q*(b-x) {
				d = p / q
				u := x + d
				if u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, xm-x)
				}
				useGolden = false
			}
		}
		if useGolden {
			if x >= xm {
				e = a - x
			} else {
				e = b - x
			}
			d = goldenRatio * e
		}
		var u float64
		if math.Abs(d) >= tol1 {
			u = x + d
		} else {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		if fu <= fx {
			if u >= x {
				a = x
			} else {
				b = x
			}
			v, w, x = w, x, u
			fv, fw, fx = fw, fx, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu <= fw || w == x {
				v, w = w, u
				fv, fw = fw, fu
			} else if fu <= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
	}
	return x, fx
}

// TestBrentStepperMatchesClosureForm runs both forms over the objectives
// of the tests above plus boundary minima, flat and kinked functions and
// truncated budgets, and compares the sequence of evaluated abscissas and
// the returned pair by bits.
func TestBrentStepperMatchesClosureForm(t *testing.T) {
	cases := []struct {
		name    string
		f       func(float64) float64
		lo, hi  float64
		tol     float64
		maxIter int
	}{
		{"quadratic", func(x float64) float64 { return (x - 3) * (x - 3) }, -10, 10, 1e-10, 200},
		{"cosine", math.Cos, 2, 5, 1e-12, 200},
		{"left boundary", func(x float64) float64 { return x }, 1, 4, 1e-10, 200},
		{"right boundary", func(x float64) float64 { return -x }, 1, 4, 1e-10, 200},
		{"boundary, coarse", func(x float64) float64 { return math.Exp(x) }, 0.0625, 4, 1e-3, 24},
		{"flat", func(float64) float64 { return 7 }, -1, 1, 1e-6, 100},
		{"kink", func(x float64) float64 { return math.Abs(x - 0.3) }, 0, 2, 1e-8, 100},
		{"site-rate shape", func(r float64) float64 { return 5*r - 3*math.Log(r) }, 0.125, 8, 1e-3, 24},
		{"budget of 3", func(x float64) float64 { return (x - 3) * (x - 3) }, -10, 10, 1e-10, 3},
		{"budget of 0", math.Cos, 2, 5, 1e-12, 0},
	}
	for s := 0.0; s < 8; s += 0.37 {
		s := s - 4
		cases = append(cases, struct {
			name    string
			f       func(float64) float64
			lo, hi  float64
			tol     float64
			maxIter int
		}{"shifted quadratic", func(x float64) float64 { return (x - s) * (x - s) }, -5, 5, 1e-10, 300})
	}
	for _, c := range cases {
		var want, got []uint64
		wx, wf := closureBrent(func(x float64) float64 {
			want = append(want, math.Float64bits(x))
			return c.f(x)
		}, c.lo, c.hi, c.tol, c.maxIter)
		gx, gf := brent(func(x float64) float64 {
			got = append(got, math.Float64bits(x))
			return c.f(x)
		}, c.lo, c.hi, c.tol, c.maxIter)
		if math.Float64bits(wx) != math.Float64bits(gx) || math.Float64bits(wf) != math.Float64bits(gf) {
			t.Errorf("%s: stepper returns (%.17g, %.17g), closure form (%.17g, %.17g)", c.name, gx, gf, wx, wf)
		}
		if len(want) != len(got) {
			t.Errorf("%s: stepper evaluates %d points, closure form %d", c.name, len(got), len(want))
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s: evaluation %d at %x, closure form at %x", c.name, i, got[i], want[i])
				break
			}
		}
	}
}

// TestBrentStepperStartsFromAHeldValue: a search started at a point whose
// value the caller holds never asks for that point again, keeps it when
// nothing better turns up, and says which kind of step it proposed.
func TestBrentStepperStartsFromAHeldValue(t *testing.T) {
	f := func(x float64) float64 { return (x - 2) * (x - 2) }
	var s BrentStepper
	s.Start(0.2, 5, 1, f(1), 1e-3)
	sawParabolic := false
	n := 0
	for ; n < 50; n++ {
		u, ok := s.Next()
		if !ok {
			break
		}
		if u == 1 {
			t.Fatal("the held starting point was proposed again")
		}
		if n == 0 && s.Parabolic() {
			t.Error("first step from a single point cannot be parabolic")
		}
		sawParabolic = sawParabolic || s.Parabolic()
		s.Report(f(u))
	}
	if x, fx := s.Best(); math.Abs(x-2) > 5e-3 || fx != f(x) {
		t.Errorf("best (%g, %g) after %d steps, want x ~ 2 with its own value", x, fx, n)
	}
	if !sawParabolic {
		t.Error("no parabolic step on a parabola")
	}
	// A start that is already the minimum of everything probed stays.
	s.Start(0.2, 5, 1, -1, 1e-3)
	for {
		u, ok := s.Next()
		if !ok {
			break
		}
		s.Report(f(u))
	}
	if x, fx := s.Best(); x != 1 || fx != -1 {
		t.Errorf("best (%g, %g), want the held start (1, -1)", x, fx)
	}
}
