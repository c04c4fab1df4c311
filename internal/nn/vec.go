package nn

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// Vec is a float vector that marshals to JSON as the standard base64 of
// its little-endian IEEE 754 bits. The encoding is bit-exact — −0,
// subnormals, ±Inf and NaN payloads all survive, where decimal JSON
// cannot encode the last three at all — and about 10.7 characters per
// float instead of decimal's ~19. A nil Vec marshals as null and an empty
// one as "", so the two stay distinct.
type Vec []float64

// vecChunk is the number of floats encoded or decoded per pass through the
// fixed stack buffer: 96 floats = 768 bytes = 1024 base64 characters, a
// multiple of both 3 bytes and 4 characters, so no chunk but the last is
// padded.
const vecChunk = 96

// MarshalJSON implements json.Marshaler.
func (v Vec) MarshalJSON() ([]byte, error) {
	if v == nil {
		return []byte("null"), nil
	}
	enc := base64.StdEncoding
	out := make([]byte, 0, enc.EncodedLen(8*len(v))+2)
	out = append(out, '"')
	var buf [8 * vecChunk]byte
	for len(v) > 0 {
		n := min(len(v), vecChunk)
		for i, f := range v[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
		}
		out = enc.AppendEncode(out, buf[:8*n])
		v = v[n:]
	}
	return append(out, '"'), nil
}

// UnmarshalJSON implements json.Unmarshaler. Anything but null or a
// canonical base64 string of a whole number of floats is an error.
func (v *Vec) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*v = nil
		return nil
	}
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("nn: vector is not a JSON string")
	}
	s := data[1 : len(data)-1]
	if bytes.IndexByte(s, '\\') >= 0 {
		// Base64 needs no escapes; an escaped string is decoded the slow way.
		var str string
		if err := json.Unmarshal(data, &str); err != nil {
			return fmt.Errorf("nn: vector: %w", err)
		}
		s = []byte(str)
	}
	// Decode a full 1024-character chunk at a time. Padding inside the
	// string makes its chunk decode to 766 or 767 bytes, which the
	// whole-float check rejects.
	enc := base64.StdEncoding.Strict()
	out := make(Vec, 0, enc.DecodedLen(len(s))/8)
	var buf [8 * vecChunk]byte
	for len(s) > 0 {
		c := s[:min(len(s), enc.EncodedLen(len(buf)))]
		n, err := enc.Decode(buf[:], c)
		if err != nil {
			return fmt.Errorf("nn: vector: %w", err)
		}
		if n%8 != 0 {
			return fmt.Errorf("nn: vector is not a whole number of floats")
		}
		for i := 0; i < n; i += 8 {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[i:])))
		}
		s = s[len(c):]
	}
	*v = out
	return nil
}
