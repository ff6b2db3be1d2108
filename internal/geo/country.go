package geo

// Region groups countries the way Figure 7 labels its clusters.
type Region string

// Regions used by the study's top-20 countries.
const (
	NorthAmerica Region = "North America"
	LatinAmerica Region = "Latin America"
	Europe       Region = "Europe"
	Asia         Region = "Asia"
	Oceania      Region = "Oceania"
	MiddleEast   Region = "Middle East"
)

// Country is one row of the embedded 2011 reference table. Population and
// Internet-user counts reproduce the public internetworldstats-style
// figures the paper used; GDP per capita is PPP in 2011 USD.
type Country struct {
	Code          string // ISO 3166-1 alpha-2
	Name          string
	Region        Region
	Population    int64
	InternetUsers int64
	GDPPerCapita  float64
	Centroid      Point
}

// IPR returns the Internet penetration rate: Internet users as a fraction
// of population (Figure 7(b)'s Y axis, as a fraction rather than percent).
func (c Country) IPR() float64 {
	if c.Population == 0 {
		return 0
	}
	return float64(c.InternetUsers) / float64(c.Population)
}

// countries lists the paper's top-20 study countries, 2011 values.
var countries = []Country{
	{"US", "United States", NorthAmerica, 313_232_000, 245_203_000, 48_100, Point{39.8, -98.6}},
	{"IN", "India", Asia, 1_189_173_000, 121_000_000, 3_700, Point{22.0, 79.0}},
	{"BR", "Brazil", LatinAmerica, 203_430_000, 81_798_000, 11_900, Point{-14.2, -51.9}},
	{"GB", "United Kingdom", Europe, 62_698_000, 52_731_000, 36_100, Point{54.0, -2.0}},
	{"CA", "Canada", NorthAmerica, 34_031_000, 27_757_000, 41_100, Point{56.1, -106.3}},
	{"DE", "Germany", Europe, 81_472_000, 67_364_000, 38_400, Point{51.2, 10.4}},
	{"ID", "Indonesia", Asia, 245_613_000, 39_600_000, 4_700, Point{-2.5, 118.0}},
	{"MX", "Mexico", LatinAmerica, 113_724_000, 42_000_000, 15_100, Point{23.6, -102.5}},
	{"IT", "Italy", Europe, 61_016_000, 35_800_000, 30_500, Point{42.8, 12.8}},
	{"ES", "Spain", Europe, 46_754_000, 31_606_000, 30_600, Point{40.4, -3.7}},
	{"RU", "Russia", Europe, 142_960_000, 61_472_000, 16_700, Point{61.5, 105.3}},
	{"FR", "France", Europe, 65_102_000, 50_290_000, 35_000, Point{46.6, 2.2}},
	{"JP", "Japan", Asia, 126_475_000, 101_228_000, 34_300, Point{36.2, 138.3}},
	{"CN", "China", Asia, 1_336_718_000, 513_100_000, 8_400, Point{35.9, 104.2}},
	{"TH", "Thailand", Asia, 66_720_000, 18_310_000, 9_700, Point{15.8, 101.0}},
	{"TW", "Taiwan", Asia, 23_072_000, 16_147_000, 37_900, Point{23.7, 121.0}},
	{"VN", "Vietnam", Asia, 90_549_000, 30_859_000, 3_300, Point{14.1, 108.3}},
	{"AR", "Argentina", LatinAmerica, 41_770_000, 28_000_000, 17_400, Point{-38.4, -63.6}},
	{"AU", "Australia", Oceania, 21_767_000, 17_033_000, 40_800, Point{-25.3, 133.8}},
	{"IR", "Iran", MiddleEast, 77_891_000, 36_500_000, 12_200, Point{32.4, 53.7}},
}

var byCode = func() map[string]Country {
	m := make(map[string]Country, len(countries))
	for _, c := range countries {
		m[c.Code] = c
	}
	return m
}()

// ByCode looks up a country by its ISO alpha-2 code.
func ByCode(code string) (Country, bool) {
	c, ok := byCode[code]
	return c, ok
}

// PaperTop10 lists the top-10 Google+ countries of Figure 6 in the
// paper's order.
var PaperTop10 = []string{"US", "IN", "BR", "GB", "CA", "DE", "ID", "MX", "IT", "ES"}
