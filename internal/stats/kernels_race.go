//go:build race || purego

package stats

// goKernels reports a build that always runs the Go kernel loops: a
// race-detector build, or one tagged purego; see useAVX2.
const goKernels = true
