//go:build race

package mapreduce

// raceDetector is whether the tests run under the race detector, whose
// sync.Pool drops a random share of what it is given: a pooled sort index
// is then allocated again more often than in a plain build.
const raceDetector = true
