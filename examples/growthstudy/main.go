// Growth study: the paper's proposed follow-up work (§7) — simulate the
// service's two launch regimes (§2.1: invitation-only field trial, then
// open sign-up), take a topology snapshot per epoch, and test for the
// phase transition, the densification law, and shrinking path lengths.
//
//	go run ./examples/growthstudy
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"gplus/internal/graph"
	"gplus/internal/growth"
)

func main() {
	snaps, err := growth.Simulate(growth.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("epoch  phase        users     edges   avg-deg  path-len")
	rng := rand.New(rand.NewPCG(1, 1))
	for _, s := range snaps {
		dist := graph.SamplePathLengths(context.Background(), s.Graph, graph.Undirected,
			graph.PathLengthOptions{MinSources: 16, MaxSources: 48, Rand: rng})
		fmt.Printf("%5d  %-11s %7d  %8d  %7.1f  %8.2f\n",
			s.Epoch, s.Phase, s.Users, s.Edges, graph.AvgDegree(s.Graph), dist.Mean())
	}

	fit, err := growth.DensificationFit(snaps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndensification law: E ∝ N^%.2f (R²=%.3f) — superlinear, per Leskovec et al. [28]\n",
		fit.Slope, fit.R2)

	if epoch, ok := growth.TippingPoint(snaps); ok {
		fmt.Printf("phase transition detected at epoch %d (open sign-up began after epoch %d)\n",
			epoch-1, growth.DefaultConfig().InvitationEpochs)
	}
}
