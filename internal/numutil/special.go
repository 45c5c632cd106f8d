package numutil

import "math"

// GammaIncP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x)/Γ(a) for a > 0, x ≥ 0.
//
// It is evaluated by the power series for x < a+1 and by the Lentz
// continued fraction for the complement otherwise — the classic split that
// keeps both expansions in their fast-converging regime.
func GammaIncP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x < a+1:
		return gammaPSeries(a, x)
	default:
		return 1 - gammaQContinuedFraction(a, x)
	}
}

func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for n := 0; n < 500; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-16 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaQContinuedFraction(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// GammaQuantile returns x such that P(shape, rate·x) = p, i.e. the p-quantile
// of a Gamma(shape, rate) distribution. It brackets the root and refines it
// with Newton steps guarded by bisection; accuracy is ~1e-12 relative.
//
// The discrete-Γ model of among-site rate heterogeneity (Yang 1994) needs
// this to place the category boundaries at the (i/k)-quantiles of
// Gamma(α, α).
func GammaQuantile(p, shape, rate float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Work with the standard Gamma(shape, 1) and rescale at the end.
	// Initial guess: Wilson–Hilferty normal approximation.
	z := normalQuantile(p)
	g := 1 - 1/(9*shape) + z/(3*math.Sqrt(shape))
	x := shape * g * g * g
	if x <= 0 || math.IsNaN(x) {
		x = shape
	}
	lo, hi := 0.0, math.Max(2*x, shape+20*math.Sqrt(shape)+20)
	for GammaIncP(shape, hi) < p {
		hi *= 2
	}
	lgA, _ := math.Lgamma(shape)
	for i := 0; i < 200; i++ {
		f := GammaIncP(shape, x) - p
		if f > 0 {
			hi = x
		} else {
			lo = x
		}
		// pdf of Gamma(shape,1) at x
		pdf := math.Exp((shape-1)*math.Log(x) - x - lgA)
		var xn float64
		if pdf > 0 {
			xn = x - f/pdf
		}
		if !(xn > lo && xn < hi) || pdf == 0 {
			xn = 0.5 * (lo + hi)
		}
		if math.Abs(xn-x) <= 1e-13*math.Abs(x)+1e-300 {
			x = xn
			break
		}
		x = xn
	}
	return x / rate
}

// normalQuantile is the inverse standard normal CDF (Acklam's rational
// approximation, |relative error| < 1.15e-9), used only to seed the gamma
// quantile Newton iteration.
func normalQuantile(p float64) float64 {
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
