package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestLinearRegressionExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if fit.R2 != 1 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := LinearRegression([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("vertical line accepted")
	}
}

func TestLinearRegressionHorizontal(t *testing.T) {
	fit, err := LinearRegression([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.R2 != 1 {
		t.Errorf("horizontal fit = %+v", fit)
	}
}

func TestFitPowerLawRecoverExponent(t *testing.T) {
	// Sample a bounded Pareto with alpha = 1.3 and check the log-log
	// regression recovers it within tolerance.
	rng := rand.New(rand.NewPCG(42, 43))
	const alpha = 1.3
	samples := make([]int, 200_000)
	for i := range samples {
		samples[i] = int(BoundedPareto(rng, alpha, 1, 1e7))
	}
	fit, err := FitPowerLawCCDF(CCDFInts(samples), 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-alpha) > 0.1 {
		t.Errorf("alpha = %v, want ~%v", fit.Alpha, alpha)
	}
	if fit.R2 < 0.97 {
		t.Errorf("R2 = %v, want >= 0.97", fit.R2)
	}
}

func TestFitPowerLawSkipsNonPositive(t *testing.T) {
	pts := []Point{{0, 1}, {-1, 0.5}, {1, 1}, {2, 0.25}, {4, 0.0625}}
	fit, err := FitPowerLawCCDF(pts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Points != 3 {
		t.Errorf("Points = %d, want 3 (non-positive X excluded)", fit.Points)
	}
	if math.Abs(fit.Alpha-2) > 1e-9 {
		t.Errorf("alpha = %v, want 2", fit.Alpha)
	}
}

func TestFitPowerLawXmin(t *testing.T) {
	// Perfect alpha=1 tail from x=10 upward, noise below.
	pts := []Point{{1, 1}, {2, 1}, {10, 0.1}, {100, 0.01}, {1000, 0.001}}
	fit, err := FitPowerLawCCDF(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Points != 3 {
		t.Fatalf("Points = %d, want 3", fit.Points)
	}
	if math.Abs(fit.Alpha-1) > 1e-9 || fit.R2 < 0.999 {
		t.Errorf("fit = %+v, want alpha 1 R2 ~1", fit)
	}
}

func TestFitPowerLawTooFewPoints(t *testing.T) {
	if _, err := FitPowerLawCCDF([]Point{{1, 1}}, 0); err == nil {
		t.Error("single-point fit accepted")
	}
}

func TestFitPowerLawMLERecoverExponent(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	const alpha = 1.3 // CCDF exponent
	samples := make([]float64, 100_000)
	for i := range samples {
		samples[i] = BoundedPareto(rng, alpha, 1, 1e9)
	}
	got, stderr, err := FitPowerLawMLE(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-alpha) > 0.05 {
		t.Errorf("MLE alpha = %v, want ~%v", got, alpha)
	}
	if stderr <= 0 || stderr > 0.05 {
		t.Errorf("stderr = %v", stderr)
	}
}

func TestFitPowerLawMLEErrors(t *testing.T) {
	if _, _, err := FitPowerLawMLE([]float64{1, 2, 3}, 0); err == nil {
		t.Error("xmin=0 accepted")
	}
	if _, _, err := FitPowerLawMLE([]float64{5}, 1); err == nil {
		t.Error("single sample accepted")
	}
	if _, _, err := FitPowerLawMLE([]float64{2, 2, 2}, 2); err == nil {
		t.Error("degenerate samples accepted")
	}
	if _, _, err := FitPowerLawMLE([]float64{0.1, 0.2}, 1); err == nil {
		t.Error("samples below xmin accepted")
	}
}

func TestFitDegreesMLE(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	const alpha = 1.2
	degrees := make([]int, 200_000)
	for i := range degrees {
		degrees[i] = int(BoundedPareto(rng, alpha, 1, 1e8))
	}
	// The continuity correction is only reliable for xmin of several
	// units; xmin=10 matches the cutoff the study uses.
	got, _, err := FitDegreesMLE(degrees, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-alpha) > 0.1 {
		t.Errorf("discrete MLE alpha = %v, want ~%v", got, alpha)
	}
}
