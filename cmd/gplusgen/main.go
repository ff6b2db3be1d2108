// Command gplusgen generates a ground-truth dataset directly from the
// synthetic universe, bypassing HTTP — the fast path for large-scale
// analysis runs.
//
// Usage:
//
//	gplusgen -nodes 1000000 -seed 2011 -out ./data
package main

import (
	"flag"
	"log"
	"time"

	"gplus/internal/dataset"
	"gplus/internal/synth"
)

func main() {
	var (
		nodes = flag.Int("nodes", 100_000, "users to generate")
		seed  = flag.Uint64("seed", 2011, "generation seed")
		out   = flag.String("out", "data", "output dataset directory")
	)
	flag.Parse()

	start := time.Now()
	cfg := synth.DefaultConfig(*nodes)
	cfg.Seed = *seed
	u, err := synth.Generate(cfg)
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	log.Printf("generated %d users, %d edges in %v", u.NumUsers(), u.Graph.NumEdges(), time.Since(start))

	if err := dataset.FromUniverse(u).SaveV2(*out); err != nil {
		log.Fatalf("saving dataset: %v", err)
	}
	log.Printf("wrote dataset -> %s", *out)
}
