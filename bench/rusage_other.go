//go:build !unix

package main

import "os"

// Without getrusage the CPU and memory metrics read 0; the benchmark's
// reference platform is Linux.
func cpuSeconds() float64 { return 0 }

func peakRSSMiB(*os.ProcessState) float64 { return 0 }
