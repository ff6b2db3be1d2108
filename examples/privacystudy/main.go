// Privacy study: the Section 3.1-3.2 and 4.3 analyses — what users share
// publicly, how the risk-taking "tel-users" differ, and how openness
// varies across cultures.
//
//	go run ./examples/privacystudy
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
	study := core.New(dataset.FromUniverse(universe), core.Options{Seed: 8})
	w := os.Stdout

	// Table 2: how much of their profile do users expose to the open
	// Internet?
	report.Table2(w, study.AttributeTable())
	fmt.Fprintln(w)

	// Table 3: tel-users — who publishes a phone number? (Mostly male,
	// mostly single, disproportionately from India.)
	cmp := study.TelUsers()
	report.Table3(w, cmp)
	fmt.Fprintf(w, "\ntel-users: %d of %d users (%.2f%%; paper: 0.26%%)\n\n",
		cmp.TotalTel, cmp.TotalAll, 100*float64(cmp.TotalTel)/float64(cmp.TotalAll))

	// Figure 2: tel-users share far more of everything else, too.
	report.Fig2(w, study.FieldsShared())
	fmt.Fprintln(w)

	// Figure 8: openness by culture — Indonesia and Mexico share the
	// most, Germany the least.
	byCountry := study.FieldsByCountry(nil)
	report.Fig8(w, byCountry)
	fmt.Fprint(w, "\nopenness P(>6 fields):")
	for _, country := range []string{"ID", "MX", "US", "DE"} {
		for _, row := range byCountry {
			if row.Country == country {
				fmt.Fprintf(w, " %s=%.3f", country, row.Openness(6))
			}
		}
	}
	fmt.Fprintln(w)
}
