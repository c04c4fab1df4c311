package nn

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"wayfinder/internal/rng"
)

// vecRoundTrip marshals v and decodes it back.
func vecRoundTrip(t *testing.T, v Vec) Vec {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out Vec
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return out
}

// sameBits reports whether two vectors agree to the bit.
func sameBits(a, b Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestVecRoundTripBits(t *testing.T) {
	special := []uint64{
		0x8000000000000000, // −0
		0x0000000000000001, // smallest subnormal
		0x000fffffffffffff, // largest subnormal
		0x800fffffffffffff, // negative subnormal
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // −Inf
		0x7ff8000000000000, // quiet NaN
		0x7ff8dead0000beef, // quiet NaN with a payload
		0xfff0000000000001, // negative signalling NaN
		0x7ff4000000000001, // signalling NaN with a payload
	}
	v := make(Vec, len(special))
	for i, b := range special {
		v[i] = math.Float64frombits(b)
	}
	if got := vecRoundTrip(t, v); !sameBits(got, v) {
		t.Fatalf("special values: got %v, want %v", got, v)
	}
	// Random bit patterns at every length across the chunk boundaries.
	if err := quick.Check(func(seed uint64, n uint16) bool {
		r := rng.New(seed)
		v := make(Vec, int(n)%(3*vecChunk+2))
		for i := range v {
			v[i] = math.Float64frombits(r.Uint64())
		}
		return sameBits(vecRoundTrip(t, v), v)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVecNilAndEmpty(t *testing.T) {
	for _, tc := range []struct {
		v    Vec
		json string
	}{{nil, "null"}, {Vec{}, `""`}, {Vec{1}, `"AAAAAAAA8D8="`}} {
		data, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.json {
			t.Fatalf("%v marshals as %s, want %s", tc.v, data, tc.json)
		}
		got := vecRoundTrip(t, tc.v)
		if (got == nil) != (tc.v == nil) || !sameBits(got, tc.v) {
			t.Fatalf("%s decodes as %#v, want %#v", tc.json, got, tc.v)
		}
	}
	// An escaped but valid base64 string decodes too.
	var v Vec
	if err := json.Unmarshal([]byte(`"AAAAAAAA8D8\u003d"`), &v); err != nil || len(v) != 1 || v[0] != 1 {
		t.Fatalf("escaped string: %v %v", v, err)
	}
}

func TestVecRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		`1`, `[1,2]`, `"AAAA"`, `"AAAAAAAA8D8"`, `"!!!!!!!!!!!!"`,
		`"AAAAAAAA8D9="`, // non-canonical trailing bits
		`"AAAAAAAA8D8=AAAAAAAA8D8="`,
	} {
		var v Vec
		if err := json.Unmarshal([]byte(in), &v); err == nil {
			t.Errorf("%s decoded as %v, want an error", in, v)
		}
	}
}

func TestAdamStateRoundTrip(t *testing.T) {
	r := rng.New(3)
	mk := func() ([]*Param, *Adam) {
		d := NewDense(4, 3, rng.New(1))
		return d.Params(), NewAdam(0.01)
	}
	grads := func(ps []*Param, seed uint64) {
		g := rng.New(seed)
		for _, p := range ps {
			for i := range p.G {
				p.G[i] = g.NormFloat64()
			}
		}
	}
	pa, a := mk()
	for i := 0; i < 5; i++ {
		grads(pa, r.Uint64())
		a.Step(pa[:1]) // the bias is never stepped: its moments stay nil
	}
	data, err := json.Marshal(a.State(pa))
	if err != nil {
		t.Fatal(err)
	}
	var st AdamState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.M[1] != nil || st.V[1] != nil {
		t.Fatal("an unstepped parameter's moments should stay nil")
	}
	pb, b := mk()
	for i := range pa {
		copy(pb[i].W, pa[i].W)
	}
	if err := b.SetState(pb, st); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		seed := r.Uint64()
		grads(pa, seed)
		grads(pb, seed)
		a.Step(pa)
		b.Step(pb)
		for i := range pa {
			if !sameBits(pa[i].W, pb[i].W) {
				t.Fatalf("step %d: parameter %d diverged after SetState", step, i)
			}
		}
	}
	if err := b.SetState(pb, AdamState{T: 1, M: make([]Vec, 1), V: make([]Vec, 2)}); err == nil {
		t.Fatal("SetState accepted a moment count that does not match the parameters")
	}
	if err := b.SetState(pb, AdamState{T: 1, M: []Vec{{1}, nil}, V: make([]Vec, 2)}); err == nil {
		t.Fatal("SetState accepted a moment of the wrong length")
	}
}
