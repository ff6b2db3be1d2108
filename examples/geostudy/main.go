// Geo study: the Section 4 analyses — worldwide user distribution,
// penetration versus economics, path miles, and cross-country link
// structure.
//
//	go run ./examples/geostudy
package main

import (
	"fmt"
	"log"
	"os"

	"gplus/internal/core"
	"gplus/internal/dataset"
	"gplus/internal/report"
	"gplus/internal/synth"
)

func main() {
	universe, err := synth.Generate(synth.DefaultConfig(40_000))
	if err != nil {
		log.Fatal(err)
	}
	study := core.New(dataset.FromUniverse(universe), core.Options{Seed: 4})
	w := os.Stdout

	// Figure 6: where do Google+ users live?
	report.Fig6(w, study.TopCountries(11))
	fmt.Fprintln(w)

	// Figure 7: adoption is not a function of wealth — India tops the
	// Google+ penetration ranking while Japan and Russia lag far behind
	// their Internet penetration.
	report.Fig7(w, study.Penetration())
	fmt.Fprintln(w)

	// Table 5: each country follows different kinds of public figures.
	report.Table5(w, study.TopOccupationsByCountry(10))
	fmt.Fprintln(w)

	// Figure 9: physical distance shapes the social graph — friends live
	// far closer together than random pairs, reciprocal friends closest
	// of all.
	report.Fig9(w, study.PathMiles(), study.AveragePathMiles())
	fmt.Fprintln(w)

	// Figure 10: the US, Brazil, India and Indonesia look inward; the UK
	// and Canada send most of their links abroad.
	m := study.CountryLinks()
	report.Fig10(w, m)
	fmt.Fprintf(w, "\nself-loops: US=%.2f IN=%.2f GB=%.2f CA=%.2f (paper: 0.79 / 0.77 / 0.30 / 0.33)\n",
		m.SelfLoop("US"), m.SelfLoop("IN"), m.SelfLoop("GB"), m.SelfLoop("CA"))
}
