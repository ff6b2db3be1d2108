package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// The yardstick is how the benchmark tells a slow machine from slow
// code. The reference box is a small VM on a shared host: whatever its
// neighbours do moves the time of the same work by up to 2x, for minutes
// at a time, on all four workloads alike, and no statistic over a run's
// repetitions averages that out. So every repetition runs between two
// passes of the yardstick — a fixed piece of work that calls none of the
// repo's code and so costs the same at every commit — and the
// repetition's times are divided by its pace: what the two passes took
// over what a pass takes on the quiet reference box. A paced second is a
// second of the quiet reference box; a change to the repo's code moves
// paced and measured times by the same share.
//
// The yardstick has to slow down when the workloads do. A register-only
// loop does not (it follows the clock frequency and nothing else) and a
// pointer chase over 64 MiB overshoots (it follows memory latency and
// nothing else), so the passes do what the workloads do: sort, grow
// adjacency lists by append and leave the garbage to the collector, walk
// them breadth-first, fill and probe a hash map — on every core at once,
// because the workloads use every core.

// yardstickWallS and yardstickLaneCPUS are what one pass takes on the
// quiet reference box: its wall seconds, and its user+system CPU seconds
// per lane.
const (
	yardstickWallS    = 0.175
	yardstickLaneCPUS = 0.170
)

// yardstickPass is what one pass took: wall seconds, and CPU seconds per
// lane.
type yardstickPass struct{ wallS, laneCPUS float64 }

// pace is how much slower than the quiet reference box the machine ran
// around one repetition: 1.4 means the yardstick took 1.4x its nominal
// time. wall paces wall-clock times and rates, cpu paces CPU time.
type pace struct{ wall, cpu float64 }

func paceBetween(before, after yardstickPass) pace {
	return pace{
		wall: (before.wallS + after.wallS) / 2 / yardstickWallS,
		cpu:  (before.laneCPUS + after.laneCPUS) / 2 / yardstickLaneCPUS,
	}
}

// runYardstick runs one pass in a fresh child process, as every
// repetition is.
func runYardstick(ctx context.Context, cfg *config, w workload, dir string) (yardstickPass, error) {
	res, _, err := child(ctx, cfg, w, "yardstick", dir, false)
	if err != nil {
		return yardstickPass{}, err
	}
	return yardstickPass{wallS: res.WallS, laneCPUS: res.CPUS / res.Work}, nil
}

// measureYardstick is the yardstick child: one lane per core, timed
// together.
func measureYardstick(*childEnv) (*childResult, error) {
	res := newChildResult()
	sums := make([]uint64, parallelism())
	cpu0, t0 := cpuSeconds(), time.Now()
	var wg sync.WaitGroup
	for lane := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[lane] = yardstickLane(uint64(lane))
		}()
	}
	wg.Wait()
	res.WallS, res.CPUS = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	res.Work = float64(len(sums)) // lanes
	// The lanes' results go out with the timing, so that no compiler may
	// drop the work.
	res.Digest = fmt.Sprintf("%x", sums)
	return res, nil
}

// yardstickLane is one core's share of a pass. Its sizes are fixed: they
// are the unit every paced time is expressed in.
func yardstickLane(lane uint64) uint64 {
	const (
		rounds = 3
		keys   = 300_000
		nodes  = 30_000
		edges  = 450_000
	)
	rng := rand.New(rand.NewPCG(lane, 7))
	var sum uint64
	for range rounds {
		sorted := make([]uint32, keys)
		for i := range sorted {
			sorted[i] = rng.Uint32()
		}
		slices.Sort(sorted)
		sum += uint64(sorted[keys/2])

		adj := make([][]uint32, nodes)
		for i := range edges {
			u := sorted[i%keys] % nodes
			adj[u] = append(adj[u], rng.Uint32N(nodes))
		}
		dist := make([]int32, nodes)
		for i := range dist {
			dist[i] = -1
		}
		dist[0] = 0
		queue := []uint32{0}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		sum += uint64(dist[nodes-1] + 1)

		seen := make(map[uint32]uint32)
		for i, k := range sorted[:keys/3] {
			seen[k*2654435761] = uint32(i)
		}
		for _, k := range sorted {
			sum += uint64(seen[k*2654435761])
		}
	}
	return sum
}
