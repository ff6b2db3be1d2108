package geo

// City is one entry of the embedded gazetteer the synthetic universe
// places its users' "places lived" markers at.
type City struct {
	Name        string
	CountryCode string
	Loc         Point
}

// cities is a small gazetteer covering major cities in the study's
// countries.
var cities = []City{
	{"New York", "US", Point{40.71, -74.01}},
	{"Los Angeles", "US", Point{34.05, -118.24}},
	{"Chicago", "US", Point{41.88, -87.63}},
	{"San Francisco", "US", Point{37.77, -122.42}},
	{"Houston", "US", Point{29.76, -95.37}},
	{"Seattle", "US", Point{47.61, -122.33}},
	{"Mumbai", "IN", Point{19.08, 72.88}},
	{"Delhi", "IN", Point{28.61, 77.21}},
	{"Bangalore", "IN", Point{12.97, 77.59}},
	{"Chennai", "IN", Point{13.08, 80.27}},
	{"Hyderabad", "IN", Point{17.39, 78.49}},
	{"Sao Paulo", "BR", Point{-23.55, -46.63}},
	{"Rio de Janeiro", "BR", Point{-22.91, -43.17}},
	{"Belo Horizonte", "BR", Point{-19.92, -43.94}},
	{"London", "GB", Point{51.51, -0.13}},
	{"Manchester", "GB", Point{53.48, -2.24}},
	{"Toronto", "CA", Point{43.65, -79.38}},
	{"Vancouver", "CA", Point{49.28, -123.12}},
	{"Montreal", "CA", Point{45.50, -73.57}},
	{"Berlin", "DE", Point{52.52, 13.41}},
	{"Munich", "DE", Point{48.14, 11.58}},
	{"Hamburg", "DE", Point{53.55, 9.99}},
	{"Jakarta", "ID", Point{-6.21, 106.85}},
	{"Surabaya", "ID", Point{-7.26, 112.75}},
	{"Mexico City", "MX", Point{19.43, -99.13}},
	{"Guadalajara", "MX", Point{20.67, -103.35}},
	{"Rome", "IT", Point{41.90, 12.50}},
	{"Milan", "IT", Point{45.46, 9.19}},
	{"Madrid", "ES", Point{40.42, -3.70}},
	{"Barcelona", "ES", Point{41.39, 2.17}},
	{"Moscow", "RU", Point{55.76, 37.62}},
	{"Paris", "FR", Point{48.86, 2.35}},
	{"Tokyo", "JP", Point{35.68, 139.69}},
	{"Beijing", "CN", Point{39.90, 116.41}},
	{"Shanghai", "CN", Point{31.23, 121.47}},
	{"Bangkok", "TH", Point{13.76, 100.50}},
	{"Taipei", "TW", Point{25.03, 121.57}},
	{"Hanoi", "VN", Point{21.03, 105.85}},
	{"Buenos Aires", "AR", Point{-34.60, -58.38}},
	{"Sydney", "AU", Point{-33.87, 151.21}},
	{"Melbourne", "AU", Point{-37.81, 144.96}},
	{"Tehran", "IR", Point{35.69, 51.39}},
}

// Cities returns the gazetteer entries for a country code.
func Cities(countryCode string) []City {
	var out []City
	for _, c := range cities {
		if c.CountryCode == countryCode {
			out = append(out, c)
		}
	}
	return out
}
