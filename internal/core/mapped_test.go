package core

import (
	"context"
	"reflect"
	"testing"

	"gplus/internal/dataset"
	"gplus/internal/synth"
)

// TestStudyMappedMatchesRAM runs the graph-reading analyses over one
// saved dataset loaded into RAM and served memory-mapped, and requires
// equal results. The mapped view decodes rows into cursor buffers that
// the next read overwrites, so a study loop that keeps a row too long —
// the geographic loops walk a row while asking about other rows — would
// diverge here.
func TestStudyMappedMatchesRAM(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(3_000))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dataset.FromUniverse(u).SaveV2(dir); err != nil {
		t.Fatal(err)
	}
	type results struct {
		Structure *StructureResult
		Topology  TopologyRow
		Miles     PathMileResult
		AvgMiles  []CountryPathMile
		Links     CountryLinkMatrix
	}
	run := func(mapped bool) results {
		ds, err := dataset.LoadWith(dir, dataset.Options{Mapped: mapped})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		s := New(ds, Options{Seed: 7, PathSources: 24, PairSample: 2_000, Parallelism: 3})
		st, err := s.Structure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return results{
			Structure: st,
			Topology:  s.Topology(context.Background()),
			Miles:     s.PathMiles(),
			AvgMiles:  s.AveragePathMiles(),
			Links:     s.CountryLinks(),
		}
	}
	ram, mapped := run(false), run(true)
	if len(ram.Miles.Reciprocal) == 0 || len(ram.Miles.Random) == 0 {
		t.Fatal("fixture has no reciprocal or random located pairs: the probe loops did not run")
	}
	rv, mv := reflect.ValueOf(ram), reflect.ValueOf(mapped)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), mv.Field(i).Interface()) {
			t.Errorf("%s differs between the RAM and the mapped dataset", rv.Type().Field(i).Name)
		}
	}
}
