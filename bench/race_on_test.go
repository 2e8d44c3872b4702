//go:build race

package main

// raceEnabled: the race detector slows MobileNetV1 past its latency limit, so
// the smoke test then covers the two toy workloads only — they run all of the
// benchmark's own concurrent code.
const raceEnabled = true
