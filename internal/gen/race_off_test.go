//go:build !race

package gen

const raceDetector = false
