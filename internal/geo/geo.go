// Package geo supplies the geographic machinery of Section 4: haversine
// distances ("path miles"), a 2011 country reference table (population,
// Internet users, GDP per capita PPP), the gazetteer the synthetic
// universe places users at, and the penetration-rate definitions.
package geo

import "math"

// Point is a location in degrees of latitude and longitude.
type Point struct {
	Lat float64 // degrees, positive north
	Lon float64 // degrees, positive east
}

// EarthRadiusMiles is the mean Earth radius used for path-mile
// computations.
const EarthRadiusMiles = 3958.7613

const degToRad = math.Pi / 180

// CosLat is the cosine of p's latitude, the one factor of the haversine
// that depends on a single endpoint: a caller measuring many pairs over
// few points computes it once per point.
func CosLat(p Point) float64 { return math.Cos(p.Lat * degToRad) }

// HaversineMilesCos returns the great-circle distance between two points
// in miles, the "path mile" metric of §4.4, given cosA = CosLat(a) and
// cosB = CosLat(b).
func HaversineMilesCos(a, b Point, cosA, cosB float64) float64 {
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + cosA*cosB*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMiles * math.Asin(math.Sqrt(h))
}
