package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// haversineMiles is the distance between a and b with nothing cached.
func haversineMiles(a, b Point) float64 { return HaversineMilesCos(a, b, CosLat(a), CosLat(b)) }

func TestHaversineKnownDistances(t *testing.T) {
	ny := Point{40.71, -74.01}
	la := Point{34.05, -118.24}
	london := Point{51.51, -0.13}
	cases := []struct {
		name string
		a, b Point
		want float64 // miles
		tol  float64
	}{
		{"NY-LA", ny, la, 2445, 30},
		{"NY-London", ny, london, 3460, 40},
		{"same point", ny, ny, 0, 1e-9},
	}
	for _, c := range cases {
		got := haversineMiles(c.a, c.b)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: got %.1f, want %.1f ± %.1f", c.name, got, c.want, c.tol)
		}
	}
}

func TestHaversineAntipodal(t *testing.T) {
	// Half the Earth's circumference ≈ π * R.
	got := haversineMiles(Point{0, 0}, Point{0, 180})
	want := math.Pi * EarthRadiusMiles
	if math.Abs(got-want) > 1 {
		t.Errorf("antipodal distance = %v, want %v", got, want)
	}
}

func TestHaversinePropertySymmetricNonNegative(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		clamp := func(v, lo, hi float64) float64 {
			if math.IsNaN(v) {
				return 0
			}
			return math.Mod(math.Abs(v), hi-lo) + lo
		}
		a := Point{clamp(lat1, -90, 90), clamp(lon1, -180, 180)}
		b := Point{clamp(lat2, -90, 90), clamp(lon2, -180, 180)}
		d1, d2 := haversineMiles(a, b), haversineMiles(b, a)
		if math.IsNaN(d1) || d1 < 0 {
			return false
		}
		if math.Abs(d1-d2) > 1e-9 {
			return false
		}
		return d1 <= math.Pi*EarthRadiusMiles+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountriesTable(t *testing.T) {
	all := countries
	if len(all) != 20 {
		t.Fatalf("country table has %d entries, want 20", len(all))
	}
	seen := map[string]bool{}
	for _, c := range all {
		if len(c.Code) != 2 {
			t.Errorf("bad code %q", c.Code)
		}
		if seen[c.Code] {
			t.Errorf("duplicate code %q", c.Code)
		}
		seen[c.Code] = true
		if c.Population <= 0 || c.InternetUsers <= 0 || c.GDPPerCapita <= 0 {
			t.Errorf("%s has non-positive stats: %+v", c.Code, c)
		}
		if c.InternetUsers > c.Population {
			t.Errorf("%s has more Internet users than people", c.Code)
		}
		ipr := c.IPR()
		if ipr <= 0 || ipr >= 1 {
			t.Errorf("%s IPR = %v, want in (0,1)", c.Code, ipr)
		}
		if c.Centroid.Lat < -90 || c.Centroid.Lat > 90 || c.Centroid.Lon < -180 || c.Centroid.Lon > 180 {
			t.Errorf("%s centroid out of range: %+v", c.Code, c.Centroid)
		}
	}
	for _, code := range PaperTop10 {
		if !seen[code] {
			t.Errorf("top-10 country %s missing from table", code)
		}
	}
}

func TestByCode(t *testing.T) {
	us, ok := ByCode("US")
	if !ok || us.Name != "United States" {
		t.Fatalf("ByCode(US) = %+v, %v", us, ok)
	}
	if _, ok := ByCode("ZZ"); ok {
		t.Fatal("ByCode(ZZ) should not resolve")
	}
}

func TestCitiesPerCountry(t *testing.T) {
	if got := Cities("US"); len(got) < 3 {
		t.Errorf("US has %d gazetteer cities, want >= 3", len(got))
	}
	if got := Cities("ZZ"); got != nil {
		t.Errorf("unknown country cities = %v", got)
	}
	// Every study country must have at least one city so the generator
	// can place users.
	for _, c := range countries {
		if len(Cities(c.Code)) == 0 {
			t.Errorf("country %s has no cities", c.Code)
		}
	}
}

func TestPenetrationRates(t *testing.T) {
	pts := PenetrationRates(map[string]int{"US": 1_000_000, "IN": 2_000_000, "ZZ": 5})
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2 (unknown country skipped)", len(pts))
	}
	// Sorted by code: IN before US.
	if pts[0].Code != "IN" || pts[1].Code != "US" {
		t.Fatalf("order = %v", []string{pts[0].Code, pts[1].Code})
	}
	in, us := pts[0], pts[1]
	if in.GPR <= us.GPR {
		t.Errorf("IN GPR %v should exceed US GPR %v for these counts", in.GPR, us.GPR)
	}
	if us.IPR <= in.IPR {
		t.Errorf("US IPR %v should exceed IN IPR %v", us.IPR, in.IPR)
	}
	if us.GDPPerCapita <= in.GDPPerCapita {
		t.Errorf("GDP ordering wrong")
	}
}

func TestIPRLinearWithGDPTrend(t *testing.T) {
	// Figure 7(b): IPR correlates with GDP per capita. Verify a strong
	// positive rank correlation over the embedded table (Spearman > 0.5).
	all := countries
	n := len(all)
	rank := func(vals []float64) []float64 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		// insertion sort by value
		for i := 1; i < n; i++ {
			for j := i; j > 0 && vals[idx[j]] < vals[idx[j-1]]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
		r := make([]float64, n)
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	gdp := make([]float64, n)
	ipr := make([]float64, n)
	for i, c := range all {
		gdp[i] = c.GDPPerCapita
		ipr[i] = c.IPR()
	}
	rg, ri := rank(gdp), rank(ipr)
	var d2 float64
	for i := range rg {
		d := rg[i] - ri[i]
		d2 += d * d
	}
	rho := 1 - 6*d2/float64(n*(n*n-1))
	if rho < 0.5 {
		t.Errorf("Spearman(GDP, IPR) = %v, want > 0.5", rho)
	}
}
