//go:build race

package gen

const raceDetector = true
