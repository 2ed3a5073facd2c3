//go:build race

package main

// raceEnabled: the race detector slows the stack several times over, below
// the read/write workloads' fixed update rates.
const raceEnabled = true
