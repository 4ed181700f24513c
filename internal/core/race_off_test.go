//go:build !race

package core

// raceDetectorEnabled reports whether the test binary was built with -race.
const raceDetectorEnabled = false
