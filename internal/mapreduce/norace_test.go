//go:build !race

package mapreduce

// raceDetector is whether the tests run under the race detector (see
// race_test.go).
const raceDetector = false
