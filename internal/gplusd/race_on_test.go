//go:build race

package gplusd

const raceEnabled = true
