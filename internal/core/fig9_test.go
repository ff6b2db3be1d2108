package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gplus/internal/dataset"
	"gplus/internal/geo"
	"gplus/internal/graph"
	"gplus/internal/profile"
	"gplus/internal/stats"
	"gplus/internal/synth"
)

// pathMilesSerial is the reference Figure 9(a): one question at a time.
// It walks the profiles for locations, asks graph.HasArc about every
// random attempt as it is drawn, and measures each pair with
// geo.HaversineMilesCos from the profiles' own coordinates — sharing only
// the RNG stream, the reservoir, stats.CDF and stats.DKWEpsilon with
// Study.pathMiles.
func pathMilesSerial(s *Study) PathMileResult {
	rng := s.rng(11)
	var located []graph.NodeID
	isLocated := make([]bool, s.ds.NumUsers())
	s.eachCrawled(func(node graph.NodeID) {
		if s.ds.Profiles[node].HasLocation() {
			located = append(located, node)
			isLocated[node] = true
		}
	})
	friends := stats.NewReservoir[[2]graph.NodeID](s.opts.PairSample, rng)
	reciprocal := stats.NewReservoir[[2]graph.NodeID](s.opts.PairSample, rng)
	for _, u := range located {
		for _, v := range s.g.Out(u) {
			if !isLocated[v] {
				continue
			}
			friends.Add([2]graph.NodeID{u, v})
			if graph.HasArc(s.g, v, u) {
				reciprocal.Add([2]graph.NodeID{u, v})
			}
		}
	}
	res := PathMileResult{}
	dist := func(pair [2]graph.NodeID) float64 {
		a, b := s.ds.Profiles[pair[0]].Loc, s.ds.Profiles[pair[1]].Loc
		return geo.HaversineMilesCos(a, b, geo.CosLat(a), geo.CosLat(b))
	}
	for _, pair := range friends.Items() {
		res.Friends = append(res.Friends, dist(pair))
	}
	for _, pair := range reciprocal.Items() {
		res.Reciprocal = append(res.Reciprocal, dist(pair))
	}
	if len(located) >= 2 {
		for attempts := 0; len(res.Random) < s.opts.PairSample && attempts < 20*s.opts.PairSample; attempts++ {
			u := located[rng.IntN(len(located))]
			v := located[rng.IntN(len(located))]
			if u == v || graph.HasArc(s.g, u, v) || graph.HasArc(s.g, v, u) {
				continue
			}
			res.Random = append(res.Random, dist([2]graph.NodeID{u, v}))
		}
	}
	res.FriendsCDF = stats.CDF(res.Friends)
	res.ReciprocalCDF = stats.CDF(res.Reciprocal)
	res.RandomCDF = stats.CDF(res.Random)
	if friends.Seen() > int64(len(res.Friends)) {
		res.FriendsEps = stats.DKWEpsilon(len(res.Friends), PairSampleAlpha)
	}
	if reciprocal.Seen() > int64(len(res.Reciprocal)) {
		res.ReciprocalEps = stats.DKWEpsilon(len(res.Reciprocal), PairSampleAlpha)
	}
	res.RandomEps = stats.DKWEpsilon(len(res.Random), PairSampleAlpha)
	return res
}

// averagePathMilesSerial is the reference Figure 9(b): one walk of the
// located users in node order, each friend pair measured from the
// profiles' own coordinates.
func averagePathMilesSerial(s *Study) []CountryPathMile {
	dists := map[string][]float64{}
	s.eachCrawled(func(u graph.NodeID) {
		pu := &s.ds.Profiles[u]
		if !pu.HasLocation() {
			return
		}
		for _, v := range s.g.Out(u) {
			if pv := &s.ds.Profiles[v]; s.ds.Crawled[v] && pv.HasLocation() {
				a, b := pu.Loc, pv.Loc
				dists[pu.CountryCode] = append(dists[pu.CountryCode], geo.HaversineMilesCos(a, b, geo.CosLat(a), geo.CosLat(b)))
			}
		}
	})
	var out []CountryPathMile
	for _, c := range geo.PaperTop10 {
		out = append(out, CountryPathMile{Country: c, Summary: stats.Summarize(dists[c])})
	}
	return out
}

// TestPathMilesMatchesSerial: the batched pair sample is the serial one,
// to the bit, over RAM and the mapped dataset, at every parallelism, for
// a sample smaller than, around and far above the located population;
// and so is the sharded Figure 9(b) sweep.
func TestPathMilesMatchesSerial(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(3_000))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dataset.FromUniverse(u).SaveV2(dir); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{false, true} {
		ds, err := dataset.LoadWith(dir, dataset.Options{Mapped: mapped})
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		wantAvg := averagePathMilesSerial(New(ds, Options{}))
		for _, par := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("mapped=%v/fig9b/P=%d", mapped, par), func(t *testing.T) {
				if got := New(ds, Options{Parallelism: par}).AveragePathMiles(); !reflect.DeepEqual(got, wantAvg) {
					t.Errorf("Figure 9(b) differs from the serial reference:\n got %+v\nwant %+v", got, wantAvg)
				}
			})
		}
		for _, sample := range []int{50, 2_000, 0} {
			want := pathMilesSerial(New(ds, Options{Seed: 7, PairSample: sample}))
			if len(want.Reciprocal) == 0 || len(want.Random) == 0 {
				t.Fatal("fixture has no reciprocal or random located pairs")
			}
			for _, par := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("mapped=%v/sample=%d/P=%d", mapped, sample, par), func(t *testing.T) {
					got := New(ds, Options{Seed: 7, PairSample: sample, Parallelism: par}).PathMiles()
					gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
					for i := 0; i < gv.NumField(); i++ {
						if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
							t.Errorf("%s differs from the serial reference", gv.Type().Field(i).Name)
						}
					}
				})
			}
		}
	}
}

// TestPathMilesAttemptCap: when every located pair is connected the
// random population stays empty, and both the batched rounds and the
// serial loop give up at the same 20×PairSample attempts — the friend
// reservoirs, drawn from the same stream first, still agree.
func TestPathMilesAttemptCap(t *testing.T) {
	const n = 9
	b := graph.NewBuilder(n, n*n)
	uni := &synth.Universe{Profiles: make([]profile.Profile, n), IDs: make([]string, n)}
	for u := 0; u < n; u++ {
		uni.IDs[u] = fmt.Sprint(u)
		uni.Profiles[u] = profile.Profile{
			Public: profile.AttrSet(0).With(profile.AttrPlacesLived), CountryCode: "US",
			Loc: geo.Point{Lat: float64(4 * u), Lon: float64(-9 * u)},
		}
		// One direction per pair is enough to link it.
		for v := u + 1; v < n; v++ {
			if (u+v)%2 == 0 {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			} else {
				b.AddEdge(graph.NodeID(v), graph.NodeID(u))
			}
		}
	}
	uni.Graph = b.Build()
	ds := dataset.FromUniverse(uni)
	for _, par := range []int{1, 3} {
		s := New(ds, Options{Seed: 7, PairSample: 50, Parallelism: par})
		got, want := s.PathMiles(), pathMilesSerial(s)
		if got.Random != nil || got.RandomCDF != nil || len(got.Friends) != n*(n-1)/2 {
			t.Fatalf("P=%d: %d random and %d friend pairs, want none and %d", par, len(got.Random), len(got.Friends), n*(n-1)/2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("P=%d: PathMiles differs from the serial reference", par)
		}
	}
}

// TestPathMilesStatedError: the default sample is the DKW size, a
// population taken whole states no error and a sampled one the DKW ε of
// its size; and on the 3 000-user fixture the default-size random-pair
// CDF lies within 2ε of an independent 20× larger sample's CDF. A miss
// needs one of the two samples to stray from the population's CDF: the
// default one by more than 1.63ε or the large one (its own ε is ε/√20)
// by more than 0.37ε, each below 1.1·10⁻⁴ by DKW — no seed is picked.
func TestPathMilesStatedError(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(3_000))
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromUniverse(u)
	want := stats.DKWSize(PairSampleEps, PairSampleAlpha)
	eps := stats.DKWEpsilon(want, PairSampleAlpha)

	def := New(ds, Options{Seed: 2012})
	pm := def.PathMiles()
	if def.opts.PairSample != want || len(pm.Random) != want {
		t.Fatalf("default PairSample %d drew %d random pairs, want the DKW size %d", def.opts.PairSample, len(pm.Random), want)
	}
	if pm.RandomEps != eps {
		t.Errorf("random ε = %v, want %v", pm.RandomEps, eps)
	}
	// The fixture's friend arcs between located users number fewer than
	// the DKW size: both reservoirs take their population whole.
	if len(pm.Friends) >= want || pm.FriendsEps != 0 || pm.ReciprocalEps != 0 {
		t.Errorf("%d friend pairs with ε %v, reciprocal ε %v: want a whole population with ε 0",
			len(pm.Friends), pm.FriendsEps, pm.ReciprocalEps)
	}
	small := New(ds, Options{Seed: 2012, PairSample: 50}).PathMiles()
	if e := stats.DKWEpsilon(50, PairSampleAlpha); small.FriendsEps != e || small.ReciprocalEps != e || small.RandomEps != e {
		t.Errorf("50-pair samples state ε %v/%v/%v, want %v", small.FriendsEps, small.ReciprocalEps, small.RandomEps, e)
	}

	large := New(ds, Options{Seed: 7, PairSample: 20 * want}).PathMiles()
	if len(large.Random) != 20*want {
		t.Fatalf("large sample drew %d random pairs, want %d", len(large.Random), 20*want)
	}
	if d := supDistance(pm.RandomCDF, large.RandomCDF); d > 2*eps {
		t.Errorf("random-pair CDFs of %d and %d pairs are %.4f apart, beyond 2ε = %.4f", want, 20*want, d, 2*eps)
	}
}

// supDistance is the largest gap between two empirical CDFs, which
// both step only at their own points.
func supDistance(a, b []stats.Point) float64 {
	var d float64
	for _, pts := range [][]stats.Point{a, b} {
		for _, p := range pts {
			d = max(d, math.Abs(stats.CDFAt(a, p.X)-stats.CDFAt(b, p.X)))
		}
	}
	return d
}
