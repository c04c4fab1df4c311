package wfd

import (
	"testing"

	"wayfinder/internal/configspace"
)

// FuzzJobFile drives a job file down the path wfctl start and wfctl
// submit share — ParseJobYAML, SpecFromJob, JobSpec.Validate — and, for
// specs Validate accepts, the model construction that applies their
// favor: and fixed: entries. Every input must end in an error or a
// spec, never a panic. The committed seeds under
// testdata/fuzz/FuzzJobFile run with every plain `go test`.
func FuzzJobFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		job, err := configspace.ParseJobYAML(src)
		if err != nil {
			return
		}
		sp := SpecFromJob(job)
		if err := sp.Validate(); err != nil {
			return
		}
		_, _ = sp.withDefaults().buildModel()
	})
}
