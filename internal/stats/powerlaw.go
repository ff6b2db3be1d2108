package stats

import (
	"errors"
	"math"
)

// LinearFit is the result of an ordinary-least-squares line fit.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// LinearRegression fits y = Slope*x + Intercept by least squares and
// reports the coefficient of determination R^2. It requires at least two
// points with distinct x values.
func LinearRegression(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: x and y lengths differ")
	}
	n := len(xs)
	if n < 2 {
		return LinearFit{}, errors.New("stats: need at least two points")
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: all x values identical")
	}
	slope := sxy / sxx
	fit := LinearFit{
		Slope:     slope,
		Intercept: my - slope*mx,
		N:         n,
	}
	if syy == 0 {
		fit.R2 = 1 // a horizontal line fits perfectly
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// PowerLawFit describes a fitted CCDF of the form P(X >= x) = C * x^-Alpha.
type PowerLawFit struct {
	// Alpha is the CCDF exponent; the paper reports 1.3 for in-degree and
	// 1.2 for out-degree.
	Alpha float64
	// C is the multiplicative constant.
	C float64
	// R2 is the goodness of fit of the log-log regression; the paper
	// reports 0.99.
	R2 float64
	// Points is how many distinct CCDF points entered the fit.
	Points int
}

// FitPowerLawCCDF estimates a power-law exponent by simple linear
// regression in log-log space over the CCDF points, the method of §3.3.1.
// Points with X < xmin are excluded (pass xmin <= 0 to keep everything
// positive). Zero-valued samples never enter the fit since log is
// undefined there.
func FitPowerLawCCDF(ccdf []Point, xmin float64) (PowerLawFit, error) {
	var xs, ys []float64
	for _, p := range ccdf {
		if p.X <= 0 || p.Y <= 0 || p.X < xmin {
			continue
		}
		xs = append(xs, math.Log(p.X))
		ys = append(ys, math.Log(p.Y))
	}
	lf, err := LinearRegression(xs, ys)
	if err != nil {
		return PowerLawFit{}, err
	}
	return PowerLawFit{
		Alpha:  -lf.Slope,
		C:      math.Exp(lf.Intercept),
		R2:     lf.R2,
		Points: lf.N,
	}, nil
}

// FitPowerLawMLE estimates the CCDF tail exponent by the Hill / maximum
// likelihood estimator of Clauset, Shalizi & Newman over samples >= xmin
// (continuous approximation):
//
//	alpha_pdf = 1 + n / Σ ln(x_i / xmin),   alpha_ccdf = alpha_pdf - 1.
//
// The paper fits by log-log regression (§3.3.1), which the literature
// considers biased; this estimator is provided as the methodological
// cross-check and returns the CCDF exponent directly comparable to the
// paper's alpha. StdErr is the asymptotic standard error
// (alpha_pdf-1)/sqrt(n).
func FitPowerLawMLE(samples []float64, xmin float64) (alpha, stdErr float64, err error) {
	if xmin <= 0 {
		return 0, 0, errors.New("stats: xmin must be positive")
	}
	var (
		n      int
		logSum float64
	)
	for _, x := range samples {
		if x >= xmin {
			n++
			logSum += math.Log(x / xmin)
		}
	}
	if n < 2 {
		return 0, 0, errors.New("stats: too few samples above xmin")
	}
	if logSum == 0 {
		return 0, 0, errors.New("stats: all samples equal xmin")
	}
	alphaPDF := 1 + float64(n)/logSum
	alpha = alphaPDF - 1
	stdErr = alpha / math.Sqrt(float64(n))
	return alpha, stdErr, nil
}

// FitDegreesMLE applies FitPowerLawMLE to integer degrees with the +0.5
// continuity correction recommended for discrete data.
func FitDegreesMLE(degrees []int, xmin int) (alpha, stdErr float64, err error) {
	vals := make([]float64, 0, len(degrees))
	for _, d := range degrees {
		if d >= xmin {
			vals = append(vals, float64(d)+0.5)
		}
	}
	return FitPowerLawMLE(vals, float64(xmin)-0.5)
}
