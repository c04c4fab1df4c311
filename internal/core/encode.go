package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"

	"wayfinder/internal/configspace"
)

// encodeBufs recycles the scratch buffers reports and snapshots encode
// into. Every encoding returns an exact-size copy, so the caller never
// keeps a grown buffer's spare capacity alive, and the next encoding
// does not regrow one from nothing.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeScratch runs enc over a pooled scratch buffer and returns an
// exact-size copy of what it wrote.
func encodeScratch(enc func(dst []byte) ([]byte, error)) ([]byte, error) {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	buf, err := enc((*bp)[:0])
	if err != nil {
		return nil, err
	}
	*bp = buf
	return bytes.Clone(buf), nil
}

// splice appends head, a document encoding/json wrote with a null in the
// place key names (`,"name":null`), to dst with that null replaced by
// what fill appends. Inside a JSON string every quote is escaped, so the
// first match of a key that begins `,"` is the key itself.
func splice(dst, head []byte, key string, fill func(dst []byte) ([]byte, error)) ([]byte, error) {
	at := bytes.Index(head, []byte(key))
	if at < 0 {
		return nil, fmt.Errorf("core: encoding has no %s to splice into", key)
	}
	at += len(key) - len("null")
	dst, err := fill(append(dst, head[:at]...))
	if err != nil {
		return nil, err
	}
	return append(dst, head[at+len("null"):]...), nil
}

// appendJSON appends the report as encoding/json would encode it with
// every result, Best included, given its config_kv. encoding/json writes
// the header, the report with no history and no best; the results are
// spliced into it. The report is left unmodified. encoding/json's
// reflection over the whole report is the test oracle
// (TestReportJSONMatchesReflection).
func (r *Report) appendJSON(dst []byte) ([]byte, error) {
	type alias Report
	hdr := *r
	hdr.History, hdr.Best = nil, nil
	head, err := json.Marshal((*alias)(&hdr))
	if err != nil {
		return nil, err
	}
	return splice(dst, head, `,"history":null`, func(dst []byte) ([]byte, error) {
		var err error
		if len(r.History) == 0 {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for i := range r.History {
				if i > 0 {
					dst = append(dst, ',')
				}
				if dst, err = r.History[i].appendJSON(dst); err != nil {
					return nil, err
				}
			}
			dst = append(dst, ']')
		}
		if r.Best != nil {
			dst = append(dst, `,"best":`...)
			return r.Best.appendJSON(dst)
		}
		return dst, nil
	})
}

// appendJSON appends the result as encoding/json writes it with its
// config_kv filled in: the fifteen serialized fields in tag order under
// their omitempty rules. A non-nil ConfigKV is written as given;
// otherwise the assignment comes straight from Config. NaN and ±Inf fail
// with the error encoding/json returns. encoding/json's reflection form
// is its test oracle.
func (r *Result) appendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"iteration":`...)
	dst = strconv.AppendInt(dst, int64(r.Iteration), 10)
	dst = append(dst, `,"config":`...)
	dst = configspace.AppendJSONString(dst, r.ConfigString)
	dst = append(dst, `,"config_kv":`...)
	switch {
	case r.ConfigKV != nil:
		dst = appendKV(dst, r.ConfigKV)
	case r.Config != nil:
		dst = r.Config.AppendKVJSON(dst)
	default:
		dst = append(dst, "null"...)
	}
	dst = append(dst, `,"metric":`...)
	if dst, err = appendFloat(dst, r.Metric); err != nil {
		return nil, err
	}
	dst = append(dst, `,"crashed":`...)
	dst = strconv.AppendBool(dst, r.Crashed)
	dst = append(dst, `,"stage":`...)
	dst = configspace.AppendJSONString(dst, r.Stage)
	if r.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = configspace.AppendJSONString(dst, r.Reason)
	}
	dst = append(dst, `,"build_skipped":`...)
	dst = strconv.AppendBool(dst, r.BuildSkipped)
	if r.CacheHit {
		dst = append(dst, `,"cache_hit":true`...)
	}
	if r.CacheRemote {
		dst = append(dst, `,"cache_remote":true`...)
	}
	dst = append(dst, `,"start_sec":`...)
	if dst, err = appendFloat(dst, r.StartSec); err != nil {
		return nil, err
	}
	dst = append(dst, `,"end_sec":`...)
	if dst, err = appendFloat(dst, r.EndSec); err != nil {
		return nil, err
	}
	dst = append(dst, `,"worker":`...)
	dst = strconv.AppendInt(dst, int64(r.Worker), 10)
	dst = append(dst, `,"host":`...)
	dst = strconv.AppendInt(dst, int64(r.Host), 10)
	if r.Retries != 0 {
		dst = append(dst, `,"retries":`...)
		dst = strconv.AppendInt(dst, int64(r.Retries), 10)
	}
	return append(dst, '}'), nil
}

// appendKV appends a name → value map as encoding/json writes it, keys
// in byte order.
func appendKV(dst []byte, kv map[string]string) []byte {
	dst = append(dst, '{')
	for i, k := range slices.Sorted(maps.Keys(kv)) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(configspace.AppendJSONString(dst, k), ':')
		dst = configspace.AppendJSONString(dst, kv[k])
	}
	return append(dst, '}')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 or from 1e21 in
// magnitude, with a two-digit negative exponent shortened (e-07 → e-7).
// NaN and ±Inf are an *json.UnsupportedValueError, as encoding/json
// reports them.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { //wfvet:ignore floateq encoding/json's own rule: zero is written as 0, never in exponent form
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
