package stats_test

import (
	"fmt"

	"gplus/internal/stats"
)

func ExampleCCDF() {
	pts := stats.CCDF([]float64{1, 2, 2, 4})
	for _, p := range pts {
		fmt.Printf("P(X >= %g) = %.2f\n", p.X, p.Y)
	}
	// Output:
	// P(X >= 1) = 1.00
	// P(X >= 2) = 0.75
	// P(X >= 4) = 0.25
}

func ExampleFitPowerLawCCDF() {
	// A perfect alpha = 1 tail.
	pts := []stats.Point{{X: 1, Y: 1}, {X: 10, Y: 0.1}, {X: 100, Y: 0.01}}
	fit, _ := stats.FitPowerLawCCDF(pts, 0)
	fmt.Printf("alpha = %.1f, R2 = %.2f\n", fit.Alpha, fit.R2)
	// Output:
	// alpha = 1.0, R2 = 1.00
}

func ExampleJaccard() {
	us := []string{"IT", "Mu", "IT", "Bu"}
	ca := []string{"IT", "Mu", "Co", "Bu"}
	fmt.Printf("%.2f\n", stats.Jaccard(us, ca))
	// Output:
	// 0.60
}
