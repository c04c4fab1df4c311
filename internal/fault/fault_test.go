package fault

import (
	"testing"
)

func TestEmptySchedule(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Fatal("nil schedule is not Empty")
	}
	if !nilSched.HostUpAt(0, 100) {
		t.Fatal("nil schedule downs hosts")
	}
	if _, _, killed := nilSched.KillBetween(0, 0, 0, 1e9); killed {
		t.Fatal("nil schedule kills")
	}
	if _, ok := nilSched.Inject(0, 1); ok {
		t.Fatal("nil schedule injects")
	}
	if d := nilSched.Downtime(0, 0, 1e9); d != 0 {
		t.Fatalf("nil schedule has downtime %g", d)
	}
	if err := nilSched.Validate(1, 1); err != nil {
		t.Fatalf("nil schedule invalid: %v", err)
	}
	if (&Schedule{}).Empty() == false {
		t.Fatal("zero schedule is not Empty")
	}
}

func TestTimelineStableOrder(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: HostUp, Host: 1, AtSec: 300},
		{Kind: HostDown, Host: 2, AtSec: 100},
		{Kind: HostDown, Host: 1, AtSec: 100},
	}}
	tl := []Event{s.At(0), s.At(1), s.At(2)}
	// Equal AtSec keeps original order (host 2 before host 1).
	if tl[0].Host != 2 || tl[1].Host != 1 || tl[2].Kind != HostUp {
		t.Fatalf("timeline order wrong: %+v", tl)
	}
}

func TestHostLiveness(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: HostDown, Host: 1, AtSec: 100},
		{Kind: HostUp, Host: 1, AtSec: 400},
	}}
	cases := []struct {
		t  float64
		up bool
	}{
		{0, true}, {99, true}, {100, false}, {250, false}, {400, true}, {1000, true},
	}
	for _, c := range cases {
		if got := s.HostUpAt(1, c.t); got != c.up {
			t.Errorf("HostUpAt(1, %g) = %v, want %v", c.t, got, c.up)
		}
	}
	if s.HostUpAt(0, 250) != true {
		t.Error("untouched host reported down")
	}
	if at, ok := s.NextUpAt(1, 200); !ok || at != 400 {
		t.Errorf("NextUpAt(1, 200) = %g, %v", at, ok)
	}
	if at, ok := s.NextUpAt(1, 50); !ok || at != 50 {
		t.Errorf("NextUpAt while up = %g, %v", at, ok)
	}
	forever := &Schedule{Events: []Event{{Kind: HostDown, Host: 0, AtSec: 10}}}
	if _, ok := forever.NextUpAt(0, 20); ok {
		t.Error("permanently-down host reported a revival")
	}
	if d := s.Downtime(1, 0, 1000); d != 300 {
		t.Errorf("Downtime = %g, want 300", d)
	}
	if d := s.Downtime(1, 200, 300); d != 100 {
		t.Errorf("windowed Downtime = %g, want 100", d)
	}
}

func TestKillBetweenOpenInterval(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: WorkerPreempt, Worker: 3, AtSec: 120},
		{Kind: HostDown, Host: 1, AtSec: 200},
	}}
	if kind, at, ok := s.KillBetween(3, 0, 100, 150); !ok || kind != WorkerPreempt || at != 120 {
		t.Fatalf("preempt not caught: %v %g %v", kind, at, ok)
	}
	// Open on both ends: starting exactly at, or ending exactly at, the
	// fault instant is not a kill.
	if _, _, ok := s.KillBetween(3, 0, 120, 150); ok {
		t.Fatal("kill at interval start (closed) — want open")
	}
	if _, _, ok := s.KillBetween(3, 0, 100, 120); ok {
		t.Fatal("kill at interval end (closed) — want open")
	}
	if _, _, ok := s.KillBetween(2, 0, 100, 150); ok {
		t.Fatal("preempt hit the wrong worker")
	}
	if kind, _, ok := s.KillBetween(0, 1, 150, 250); !ok || kind != HostDown {
		t.Fatal("host-down kill missed")
	}
	// Earliest applicable fault wins.
	if _, at, ok := s.KillBetween(3, 1, 100, 300); !ok || at != 120 {
		t.Fatalf("earliest kill = %g, %v", at, ok)
	}
}

func TestInject(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: BuildFail, Iter: 7, Attempt: 1},
		{Kind: BootFail, Iter: 7, Attempt: 2},
	}}
	if kind, ok := s.Inject(7, 1); !ok || kind != BuildFail {
		t.Fatal("buildfail(7,1) missed")
	}
	if kind, ok := s.Inject(7, 2); !ok || kind != BootFail {
		t.Fatal("bootfail(7,2) missed")
	}
	if _, ok := s.Inject(7, 3); ok {
		t.Fatal("inject(7,3) spurious")
	}
	if _, ok := s.Inject(8, 1); ok {
		t.Fatal("inject(8,1) spurious")
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	var p RetryPolicy
	if p.Max() != DefaultMaxAttempts {
		t.Fatalf("zero Max() = %d", p.Max())
	}
	if b := p.Backoff(1); b != DefaultBackoffSec {
		t.Fatalf("Backoff(1) = %g", b)
	}
	if b := p.Backoff(3); b != DefaultBackoffSec*DefaultBackoffMult*DefaultBackoffMult {
		t.Fatalf("Backoff(3) = %g", b)
	}
	p = RetryPolicy{MaxAttempts: 1, BackoffSec: 10, BackoffMult: 3}
	if p.Max() != 1 || p.Backoff(2) != 30 {
		t.Fatalf("explicit policy: Max=%d Backoff(2)=%g", p.Max(), p.Backoff(2))
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		s       *Schedule
		hosts   int
		workers int
		wantErr bool
	}{
		{"nil", nil, 1, 1, false},
		{"host out of range", &Schedule{Events: []Event{{Kind: HostDown, Host: 4, AtSec: 1}}}, 4, 8, true},
		{"down the only host", &Schedule{Events: []Event{{Kind: HostDown, Host: 0, AtSec: 1}}}, 1, 4, true},
		{"valid churn", &Schedule{Events: []Event{{Kind: HostDown, Host: 1, AtSec: 1}, {Kind: HostUp, Host: 1, AtSec: 9}}}, 2, 4, false},
		{"worker out of range", &Schedule{Events: []Event{{Kind: WorkerPreempt, Worker: 8, AtSec: 1}}}, 2, 8, true},
		{"negative time", &Schedule{Events: []Event{{Kind: WorkerPreempt, Worker: 0, AtSec: -1}}}, 1, 1, true},
		{"zero attempt", &Schedule{Events: []Event{{Kind: BuildFail, Iter: 3}}}, 1, 1, true},
		{"unknown kind", &Schedule{Events: []Event{{Kind: "meteor", AtSec: 1}}}, 1, 1, true},
		{"negative retry", &Schedule{Retry: RetryPolicy{MaxAttempts: -1}}, 1, 1, true},
		{"injection ok", &Schedule{Events: []Event{{Kind: BootFail, Iter: 0, Attempt: 1}}}, 1, 1, false},
	}
	for _, c := range cases {
		err := c.s.Validate(c.hosts, c.workers)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	src := "down:1@300,up:1@900,preempt:3@120.5,buildfail:7#1,bootfail:9#2,retry:4/20/2"
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 5 || s.Retry.MaxAttempts != 4 || s.Retry.BackoffSec != 20 {
		t.Fatalf("parsed %+v", s)
	}
	if got := s.String(); got != src {
		t.Fatalf("round trip: %q != %q", got, src)
	}
	reparsed, err := Parse(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if reparsed.String() != src {
		t.Fatal("second round trip diverged")
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	for _, src := range []string{"", "   "} {
		s, err := Parse(src)
		if err != nil || s != nil {
			t.Fatalf("Parse(%q) = %v, %v", src, s, err)
		}
	}
	for _, src := range []string{
		"banana", "down:1", "down:x@3", "down:1@y", "preempt:1",
		"buildfail:x", "buildfail:1#x", "retry:x", "retry:1/2/3/4", "meteor:1@2",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
	// Attempt defaults to 1 when omitted.
	s, err := Parse("buildfail:5")
	if err != nil || s.Events[0].Attempt != 1 {
		t.Fatalf("buildfail default attempt: %+v, %v", s, err)
	}
	// A bare retry policy is a non-nil schedule with no events.
	s, err = Parse("retry:5")
	if err != nil || s == nil || !s.Empty() || s.Retry.MaxAttempts != 5 {
		t.Fatalf("bare retry: %+v, %v", s, err)
	}
}
