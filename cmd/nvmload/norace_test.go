//go:build !race

package main

// raceDetector reports that the race detector instruments this test binary.
const raceDetector = false
