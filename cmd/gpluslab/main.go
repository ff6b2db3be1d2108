// Command gpluslab runs the extension studies — the paper's methodology
// caveats, implications and future-work directions — from the command
// line.
//
// Usage:
//
//	gpluslab growth                     # §7 adoption phases & densification
//	gpluslab stream -nodes 30000        # §7 content sharing & cascades
//	gpluslab sampling -nodes 30000      # §2.2 BFS bias vs re-weighted walks
//	gpluslab recommend -nodes 30000     # §6 domestic vs global recommendation
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"gplus/internal/core"
	"gplus/internal/dataset"
	"gplus/internal/graph"
	"gplus/internal/growth"
	"gplus/internal/recommend"
	"gplus/internal/sampling"
	"gplus/internal/stream"
	"gplus/internal/synth"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "calibrate":
		runCalibrate(args)
	case "growth":
		runGrowth(args)
	case "stream":
		runStream(args)
	case "sampling":
		runSampling(args)
	case "recommend":
		runRecommend(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gpluslab <calibrate|growth|stream|sampling|recommend> [flags]")
	os.Exit(2)
}

// runCalibrate prints the generator's calibration summary — the
// headline observables the synthetic universe is tuned to reproduce.
func runCalibrate(args []string) {
	u, _ := universeFlag("calibrate", args)
	ds := dataset.FromUniverse(u)
	study := core.New(ds, core.Options{Seed: 2012})
	ctx := context.Background()

	topo := study.Topology(ctx)
	rec := study.Reciprocity()
	cl := study.Clustering()
	dd, err := study.Degrees()
	if err != nil {
		log.Fatal(err)
	}
	paths := study.PathLengths(ctx)
	fmt.Printf("%-28s %10s %10s\n", "observable", "paper", "measured")
	rows := []struct {
		name     string
		paper    string
		measured string
	}{
		{"avg degree", "16.4", fmt.Sprintf("%.1f", topo.AvgDegree)},
		{"global reciprocity", "32%", fmt.Sprintf("%.0f%%", 100*rec.Global)},
		{"users with RR > 0.6", ">60%", fmt.Sprintf("%.0f%%", 100*rec.FractionAbove06)},
		{"users with CC > 0.2", "~40%", fmt.Sprintf("%.0f%%", 100*cl.FractionAbove02)},
		{"in-degree alpha", "1.3", fmt.Sprintf("%.2f", dd.InFit.Alpha)},
		{"out-degree alpha", "1.2", fmt.Sprintf("%.2f", dd.OutFit.Alpha)},
		{"directed path length", "5.9 @35M", fmt.Sprintf("%.2f", paths.Directed.Mean())},
		{"undirected path length", "4.7 @35M", fmt.Sprintf("%.2f", paths.Undirected.Mean())},
	}
	for _, r := range rows {
		fmt.Printf("%-28s %10s %10s\n", r.name, r.paper, r.measured)
	}
}

// universeFlag parses shared -nodes/-seed flags and generates a universe.
func universeFlag(name string, args []string) (*synth.Universe, *flag.FlagSet) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	nodes := fs.Int("nodes", 30_000, "users in the synthetic universe")
	seed := fs.Uint64("seed", 2011, "generation seed")
	fs.Parse(args) //nolint:errcheck — ExitOnError
	cfg := synth.DefaultConfig(*nodes)
	cfg.Seed = *seed
	u, err := synth.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return u, fs
}

func runGrowth(args []string) {
	fs := flag.NewFlagSet("growth", flag.ExitOnError)
	epochs := fs.Int("epochs", 12, "snapshot epochs")
	invite := fs.Int("invitation-epochs", 5, "field-trial epochs")
	fs.Parse(args) //nolint:errcheck
	cfg := growth.DefaultConfig()
	cfg.Epochs = *epochs
	cfg.InvitationEpochs = *invite
	snaps, err := growth.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("epoch  phase        users     edges   avg-deg")
	for _, s := range snaps {
		fmt.Printf("%5d  %-11s %7d  %8d  %7.1f\n", s.Epoch, s.Phase, s.Users, s.Edges, graph.AvgDegree(s.Graph))
	}
	if fit, err := growth.DensificationFit(snaps); err == nil {
		fmt.Printf("densification: E ∝ N^%.2f (R²=%.3f)\n", fit.Slope, fit.R2)
	}
	if epoch, ok := growth.TippingPoint(snaps); ok {
		fmt.Printf("phase transition at epoch %d\n", epoch)
	}
}

func runStream(args []string) {
	u, fs := universeFlag("stream", args)
	_ = fs
	ds := dataset.FromUniverse(u)
	res, err := stream.Simulate(ds, stream.DefaultConfig(2*u.NumUsers()))
	if err != nil {
		log.Fatal(err)
	}
	reach := res.ReachByVisibility()
	fmt.Printf("posts: %d by %d authors\n", len(res.Posts), len(res.PostsByAuthor))
	fmt.Printf("concentration: top1%%=%.0f%% top10%%=%.0f%%\n",
		100*res.Concentration(1), 100*res.Concentration(10))
	fmt.Printf("reach: public=%.1f circles=%.1f\n", reach[stream.Public], reach[stream.Circles])
}

func runSampling(args []string) {
	u, _ := universeFlag("sampling", args)
	seed := graph.TopByInDegree(u.Graph, 1, 1)[0]
	rng := rand.New(rand.NewPCG(1, 2))
	n := u.NumUsers() / 10
	fmt.Printf("%-20s %12s %12s\n", "method", "mean degree", "inflation")
	for _, m := range []sampling.Method{
		sampling.BFS, sampling.RandomWalk, sampling.MetropolisHastings, sampling.Uniform,
	} {
		rep := sampling.MeasureBias(u.Graph, m, seed, n, rng)
		fmt.Printf("%-20s %12.1f %12.2f\n", rep.Method, rep.MeanDegree, rep.Inflation)
	}
}

func runRecommend(args []string) {
	u, _ := universeFlag("recommend", args)
	ds := dataset.FromUniverse(u)
	fmt.Printf("%-20s %8s %9s\n", "population", "global", "domestic")
	for _, group := range []struct {
		label     string
		countries []string
	}{
		{"inward (BR, IN)", []string{"BR", "IN"}},
		{"US", []string{"US"}},
		{"outward (GB, CA)", []string{"GB", "CA"}},
	} {
		row := make(map[recommend.Mode]float64, 2)
		for _, mode := range []recommend.Mode{recommend.Global, recommend.Domestic} {
			res, err := recommend.Evaluate(ds, mode, recommend.EvalOptions{
				Holdout: 500, K: 10, Seed: 21, Countries: group.countries, LocatedOnly: true,
			})
			if err != nil {
				log.Fatal(err)
			}
			row[mode] = res.HitRate()
		}
		fmt.Printf("%-20s %8.3f %9.3f\n", group.label, row[recommend.Global], row[recommend.Domestic])
	}
}
