package fault

import (
	"math"
	"testing"
)

// FuzzFaultParse drives the schedule DSL the CLIs and the benchmark
// speak. Every input must end in an error or a schedule, never a panic,
// and every schedule Parse accepts must survive String → Parse unchanged,
// so the printer is the parser's exact inverse on what the parser
// produces. The committed seeds under testdata/fuzz/FuzzFaultParse (the
// fleet-churn schedule shape among them) run with every plain `go test`.
func FuzzFaultParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			if s != nil {
				t.Fatalf("Parse(%q) returned a schedule with error %v", src, err)
			}
			return
		}
		printed := s.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", src, printed, err)
		}
		if !sameSchedule(s, back) {
			t.Fatalf("Parse(%q) = %+v printed %q, which parses to %+v", src, s, printed, back)
		}
	})
}

// sameSchedule reports whether a and b hold the same events and retry
// policy, comparing times by their bits so NaN and -0 round trips count.
func sameSchedule(a, b *Schedule) bool {
	if a == nil || b == nil {
		return a == b
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if len(a.Events) != len(b.Events) {
		return false
	}
	for i, ea := range a.Events {
		eb := b.Events[i]
		if ea.Kind != eb.Kind || ea.Host != eb.Host || ea.Worker != eb.Worker ||
			ea.Iter != eb.Iter || ea.Attempt != eb.Attempt || !same(ea.AtSec, eb.AtSec) {
			return false
		}
	}
	ra, rb := a.Retry, b.Retry
	return ra.MaxAttempts == rb.MaxAttempts && same(ra.BackoffSec, rb.BackoffSec) && same(ra.BackoffMult, rb.BackoffMult)
}
