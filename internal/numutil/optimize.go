package numutil

import "math"

// goldenRatio is the golden-section step fraction (3 − √5)/2.
const goldenRatio = 0.3819660112501051

// BrentStepper is Brent's method for minimizing a function of one variable
// on an interval — golden-section search with parabolic interpolation —
// turned inside out: the caller asks for the next abscissa (Next),
// evaluates the function there however it likes, and hands the value back
// (Report). That lets many independent searches share one expensive
// evaluation per step (the lockstep per-partition model-parameter search),
// where a closure form would need one evaluation per search per step.
//
// Brent's method is the standard choice in likelihood software for
// optimizing the Γ shape parameter α and the GTR exchangeability rates:
// derivatives of the likelihood with respect to those parameters are not
// available in closed form, and Brent converges superlinearly without them.
//
// The zero value is not usable; call Start.
type BrentStepper struct {
	a, b       float64 // bracket
	x, w, v    float64 // best, second best, previous second best
	fx, fw, fv float64
	d, e       float64 // step of this and the previous iteration
	u          float64 // abscissa handed out by the last Next
	tol        float64
	parabolic  bool
}

// Start begins a search on [lo, hi] from the point x whose value fx the
// caller already holds. tol is the relative x tolerance.
func (s *BrentStepper) Start(lo, hi, x, fx, tol float64) {
	*s = BrentStepper{a: lo, b: hi, x: x, w: x, v: x, fx: fx, fw: fx, fv: fx, tol: tol}
}

// Next returns the abscissa to evaluate next, or false when the bracket has
// collapsed onto the best point to within the tolerance. Each Next that
// returns true must be followed by one Report.
func (s *BrentStepper) Next() (float64, bool) {
	const tiny = 1e-12

	a, b, x := s.a, s.b, s.x
	xm := 0.5 * (a + b)
	tol1 := s.tol*math.Abs(x) + tiny
	tol2 := 2 * tol1
	if math.Abs(x-xm) <= tol2-0.5*(b-a) {
		return 0, false
	}
	d, e := s.d, s.e
	useGolden := true
	if math.Abs(e) > tol1 {
		// Fit a parabola through (v,fv), (w,fw), (x,fx).
		r := (x - s.w) * (s.fx - s.fv)
		q := (x - s.v) * (s.fx - s.fw)
		p := (x-s.v)*q - (x-s.w)*r
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
	if math.Abs(d) >= tol1 {
		s.u = x + d
	} else {
		s.u = x + math.Copysign(tol1, d)
	}
	s.d, s.e, s.parabolic = d, e, !useGolden
	return s.u, true
}

// Report takes the function value at the abscissa the last Next returned
// and updates the bracket and the three retained points.
func (s *BrentStepper) Report(fu float64) {
	u := s.u
	if fu <= s.fx {
		if u >= s.x {
			s.a = s.x
		} else {
			s.b = s.x
		}
		s.v, s.w, s.x = s.w, s.x, u
		s.fv, s.fw, s.fx = s.fw, s.fx, fu
		return
	}
	if u < s.x {
		s.a = u
	} else {
		s.b = u
	}
	if fu <= s.fw || s.w == s.x {
		s.v, s.w = s.w, u
		s.fv, s.fw = s.fw, fu
	} else if fu <= s.fv || s.v == s.x || s.v == s.w {
		s.v, s.fv = u, fu
	}
}

// Best returns the best abscissa reported so far and its value.
func (s *BrentStepper) Best() (x, fx float64) { return s.x, s.fx }

// Parabolic reports whether the last Next proposed a parabolic-
// interpolation step (false: a golden-section step).
func (s *BrentStepper) Parabolic() bool { return s.parabolic }
